//! The metric registry and the result line.
//!
//! Every metric the benchmark can print is declared here once, with its
//! unit, its direction and whether it is an exact count (a pure function
//! of the seed, identical on every run) or a measured value (depends on
//! timing, reported with its spread). `BENCHMARK.json` lists the same
//! names; a test keeps the two in step.

use crate::stats;

/// Whether a metric repeats exactly for a given seed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// A deterministic count: identical on every run of the same seed.
    Exact,
    /// Depends on timing (directly, or through the adaptive split).
    Measured,
}

/// One metric's declaration.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    /// Dotted name, `layer.quantity[.qualifier]`.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// `"higher"` or `"lower"` is better.
    pub better: &'static str,
    /// Exact count or measured value.
    pub kind: Kind,
}

const fn def(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    kind: Kind,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        kind,
    }
}

use Kind::{Exact, Measured};

/// Metrics a user of the training system sees, from untraced runs.
pub const END_TO_END: &[MetricDef] = &[
    def("train_vps", "vertices/s", "higher", Measured),
    def("session_s", "s", "lower", Measured),
    def("setup_s", "s", "lower", Measured),
    def("final_loss", "nats", "lower", Exact),
    def("peak_rss_mib", "MiB", "lower", Measured),
];

/// Per-layer metrics, from the `--trace 1` run: engine counters (median
/// over warm epochs of untraced sessions) plus the traced sequential
/// replay.
pub const PER_LAYER: &[MetricDef] = &[
    // graph
    def("graph.build_s", "s", "lower", Measured),
    def("graph.partition_s", "s", "lower", Measured),
    // sample
    def("sample.presample_s", "s", "lower", Measured),
    def("sample.busy_s", "s", "lower", Measured),
    def("sample.batch_ms_p50", "ms", "lower", Measured),
    def("sample.src_rows", "count", "lower", Exact),
    def("sample.remote_picks", "count", "lower", Exact),
    // core.gather + feature cache
    def("core.gather.busy_s", "s", "lower", Measured),
    def("core.gather.transfer_busy_s", "s", "lower", Measured),
    def("core.gather.h2d_mib", "MiB", "lower", Measured),
    def("cache.hit_ratio", "ratio", "higher", Measured),
    def("cache.vertices", "count", "higher", Measured),
    // core.engine
    def("core.engine.train_busy_s", "s", "lower", Measured),
    def("core.engine.train_wait_s", "s", "lower", Measured),
    def("core.engine.train_occupancy", "ratio", "higher", Measured),
    def("core.engine.startup_s", "s", "lower", Measured),
    // core.refresh + embedding store
    def("core.refresh.busy_s", "s", "lower", Measured),
    def("core.refresh.task_ms_p50", "ms", "lower", Measured),
    def("core.refresh.rows", "count", "lower", Exact),
    def("core.refresh.cpu_fraction", "ratio", "higher", Measured),
    def("cache.store.reuses", "count", "higher", Exact),
    def("cache.store.max_gap", "count", "lower", Exact),
    // core.trainer + nn
    def("core.trainer.step_ms_p50", "ms", "lower", Measured),
    def("core.trainer.step_ms_p90", "ms", "lower", Measured),
    def("nn.fwd_ms.l0", "ms", "lower", Measured),
    def("nn.fwd_ms.l1", "ms", "lower", Measured),
    def("nn.bwd_ms.l0", "ms", "lower", Measured),
    def("nn.bwd_ms.l1", "ms", "lower", Measured),
    def("nn.optim_ms", "ms", "lower", Measured),
    def("nn.flops_per_step", "FLOP", "lower", Exact),
    def("core.trainer.eval_s", "s", "lower", Measured),
    // tensor kernels (traced replay) and allocations (engine sessions)
    def("tensor.matmul_s", "s", "lower", Measured),
    def("tensor.matmul_at_b_s", "s", "lower", Measured),
    def("tensor.matmul_a_bt_s", "s", "lower", Measured),
    def("tensor.gather_s", "s", "lower", Measured),
    def("tensor.scatter_add_s", "s", "lower", Measured),
    def("tensor.aggregate_s", "s", "lower", Measured),
    def("tensor.allocs.other", "count", "lower", Measured),
    def("tensor.allocs.sample", "count", "lower", Measured),
    def("tensor.allocs.gather", "count", "lower", Measured),
    def("tensor.allocs.transfer", "count", "lower", Measured),
    def("tensor.allocs.train", "count", "lower", Measured),
    def("tensor.allocs.refresh", "count", "lower", Measured),
    // core.checkpoint
    def("core.checkpoint.write_s", "s", "lower", Measured),
    def("core.checkpoint.bytes", "B", "lower", Exact),
    // core.replica + nn::allreduce + hetero::interconnect
    def("core.replica.busy_s.r0", "s", "lower", Measured),
    def("core.replica.busy_s.r1", "s", "lower", Measured),
    def("core.replica.skew", "ratio", "lower", Measured),
    def("core.replica.remote_mib", "MiB", "lower", Exact),
    def("nn.allreduce.bytes", "B", "lower", Exact),
    def("nn.allreduce.tree_ms", "ms", "lower", Measured),
    def("hetero.interconnect.sim_s", "s", "lower", Exact),
    // the traced replay itself: self time per span name, the part of the
    // wall no span covers, and the cost of tracing
    def("trace.self_s.epoch", "s", "lower", Measured),
    def("trace.self_s.sample", "s", "lower", Measured),
    def("trace.self_s.gather", "s", "lower", Measured),
    def("trace.self_s.train", "s", "lower", Measured),
    def("trace.self_s.refresh", "s", "lower", Measured),
    def("trace.self_s.probe", "s", "lower", Measured),
    def("trace.self_s.fwd", "s", "lower", Measured),
    def("trace.self_s.loss", "s", "lower", Measured),
    def("trace.self_s.bwd", "s", "lower", Measured),
    def("trace.self_s.optim", "s", "lower", Measured),
    def("trace.unattributed_s", "s", "lower", Measured),
    def("trace.wall_s", "s", "lower", Measured),
    def("trace.untraced_wall_s", "s", "lower", Measured),
    def("trace.overhead", "ratio", "lower", Measured),
    def("trace.spans", "count", "lower", Exact),
];

/// The registered spelling of `name`, for names assembled at run time
/// (kernel and stage names). Panics on a name the registry lacks: every
/// printed metric must be declared.
pub fn registered(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|d| d.name == name)
        .map(|d| d.name)
        .unwrap_or_else(|| panic!("metric {name} is not registered"))
}

/// One metric's value plus the samples it summarises (for the spread).
#[derive(Clone, Debug)]
pub struct Reading {
    /// The reported value (a median for measured metrics).
    pub value: f64,
    /// The samples behind it; empty for single-shot values.
    pub samples: Vec<f64>,
}

/// The metrics collected by one run, in insertion order.
#[derive(Default, Debug)]
pub struct Metrics {
    readings: Vec<(&'static str, Reading)>,
}

impl Metrics {
    /// Records a single value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.put(
            name,
            Reading {
                value,
                samples: Vec::new(),
            },
        );
    }

    /// Records the median of `samples`, keeping them for the spread.
    pub fn set_median(&mut self, name: &'static str, samples: Vec<f64>) {
        let value = stats::median(&samples);
        self.put(name, Reading { value, samples });
    }

    fn put(&mut self, name: &'static str, reading: Reading) {
        match self.readings.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = reading,
            None => self.readings.push((name, reading)),
        }
    }

    /// The reading recorded under `name`.
    pub fn get(&self, name: &str) -> Option<&Reading> {
        self.readings
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, r)| r)
    }

    /// Names in `defs` that were never recorded.
    pub fn missing(&self, defs: &[MetricDef]) -> Vec<&'static str> {
        defs.iter()
            .filter(|d| self.get(d.name).is_none())
            .map(|d| d.name)
            .collect()
    }

    /// Names recorded with a value JSON cannot carry (NaN or infinite).
    pub fn non_finite(&self) -> Vec<&'static str> {
        self.readings
            .iter()
            .filter(|(_, r)| !r.value.is_finite())
            .map(|(n, _)| *n)
            .collect()
    }

    /// A human-readable table of `defs`: value, unit, which direction is
    /// better, exact/measured and, for measured values, the sample count
    /// and relative IQR.
    pub fn table(&self, defs: &[MetricDef]) -> String {
        let mut out = String::new();
        for d in defs {
            let Some(r) = self.get(d.name) else {
                continue;
            };
            let spread = match (d.kind, r.samples.len()) {
                (Kind::Exact, _) => "exact".to_string(),
                (Kind::Measured, 0 | 1) => "measured, single sample".to_string(),
                (Kind::Measured, n) => {
                    format!(
                        "measured, n={n}, IQR {:.1}%",
                        100.0 * stats::relative_iqr(&r.samples)
                    )
                }
            };
            out.push_str(&format!(
                "  {:<32} {:>22} {:<10} {:<6} ({spread})\n",
                d.name, r.value, d.unit, d.better
            ));
        }
        out
    }

    /// The `"metrics"` JSON object for `defs`, in declaration order.
    /// Values print as `f64`'s `Display`: every digit of the shortest
    /// round-trip decimal, never in exponent form, so valid JSON.
    /// Non-finite values print as 0 (the caller marks the run failed).
    pub fn json_object(&self, defs: &[MetricDef]) -> String {
        let body: Vec<String> = defs
            .iter()
            .filter_map(|d| {
                self.get(d.name).map(|r| {
                    let v = if r.value.is_finite() { r.value } else { 0.0 };
                    format!(
                        "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                        d.name, v, d.unit
                    )
                })
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// The result line: the last line the benchmark prints.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics_json: &str) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {metrics_json}}}"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn names_and_units_are_well_formed_and_unique() {
        let all: Vec<&MetricDef> = END_TO_END.iter().chain(PER_LAYER).collect();
        for (i, d) in all.iter().enumerate() {
            assert!(valid_name(d.name), "bad metric name {:?}", d.name);
            assert!(valid_unit(d.unit), "bad unit {:?} for {}", d.unit, d.name);
            assert!(matches!(d.better, "higher" | "lower"), "{}", d.name);
            assert!(
                all[i + 1..].iter().all(|e| e.name != d.name),
                "duplicate metric {}",
                d.name
            );
        }
        assert!(PER_LAYER.len() <= 128);
    }

    #[test]
    fn kernel_and_stage_metrics_follow_the_library_tables() {
        for k in neutron_tensor::timing::KERNELS {
            let name = format!("tensor.{}_s", k.name());
            assert!(PER_LAYER.iter().any(|d| d.name == name), "{name} missing");
        }
        for s in neutron_tensor::alloc::STAGES {
            let name = format!("tensor.allocs.{}", s.name());
            assert!(PER_LAYER.iter().any(|d| d.name == name), "{name} missing");
        }
    }

    #[test]
    fn json_object_carries_every_recorded_metric_with_its_unit() {
        let mut m = Metrics::default();
        m.set("setup_s", 0.5);
        m.set_median("session_s", vec![3.0, 1.0, 2.0]);
        m.set("final_loss", f64::NAN);
        let json = m.json_object(END_TO_END);
        assert_eq!(
            json,
            "{\"session_s\": {\"value\": 2, \"unit\": \"s\"}, \
             \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, \
             \"final_loss\": {\"value\": 0, \"unit\": \"nats\"}}"
        );
        assert_eq!(m.non_finite(), vec!["final_loss"]);
        assert_eq!(m.missing(END_TO_END), vec!["train_vps", "peak_rss_mib"]);
    }
}
