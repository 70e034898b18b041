//! # perfbench — the repository's end-to-end and per-layer benchmark
//!
//! Three workloads drive the program only through its public API:
//!
//! * `packet-sweep` — one `Session::run_many_with` over eleven packet
//!   builtins (packet engine, event queue, transport, `simmpi::World`,
//!   the LPT cell executor);
//! * `fluid-dragonfly` — the 4096-host `dragonfly-4k-adversarial` builtin
//!   (topology and route construction, the fluid tier);
//! * `daemon-serve` — an in-process `ctnd` under a closed loop of two
//!   clients (accept, HTTP, queue, registry).
//!
//! A run with tracing off reports the [`END_TO_END`] metrics; a traced
//! run reports the [`PER_LAYER`] metrics, derived from spans the
//! benchmark records around each public call (see [`trace`]). Every run
//! also checks the program's outputs and fails its result when a check
//! does not hold. `METRICS.md` next to this crate defines each metric.

#![forbid(unsafe_code)]

pub mod batch;
pub mod daemon;
pub mod trace;
pub mod util;

use simnet::obs::json;
use std::path::PathBuf;

/// Seed used when `--seed` is absent (the `ctnsim` default).
pub const DEFAULT_SEED: u64 = 42;

/// A second seed, never used while the benchmark was tuned, on which
/// every output check must pass as well.
pub const HELD_OUT_SEED: u64 = 1009;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["packet-sweep", "fluid-dragonfly", "daemon-serve"];

/// One reported metric: name, unit, which direction is better, and (for
/// end-to-end metrics) the regression bound as a share of the median.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    /// Metric name, `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Allowed worsening as a share of the parent's median.
    pub bound: Option<f64>,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

/// Metrics of a run with tracing off — what a user of the system sees.
pub const END_TO_END: [MetricDef; 6] = [
    e2e("wall_s", "s", "lower", 0.25),
    e2e("setup_s", "s", "lower", 0.25),
    e2e("peak_rss_mb", "MB", "lower", 0.25),
    e2e("ok_ratio", "ratio", "higher", 0.01),
    e2e("latency_p50_ms", "ms", "lower", 0.25),
    e2e("runs_per_s", "1/s", "higher", 0.25),
];

/// Metrics of a traced run — one layer each. A workload that does not
/// exercise a layer reports 0 for it.
pub const PER_LAYER: [MetricDef; 34] = [
    layer("simnet.engine.events", "count", "lower"),
    layer("simnet.engine.events_per_s", "1/s", "higher"),
    layer("simnet.event.pushes", "count", "lower"),
    layer("simnet.event.queue_len_p50", "count", "lower"),
    layer("simnet.transport.drops", "count", "lower"),
    layer("simnet.transport.retransmits", "count", "lower"),
    layer("simnet.transport.timeouts", "count", "lower"),
    layer("simnet.transport.marks_dropped", "count", "lower"),
    layer("simnet.topology.build_s", "s", "lower"),
    layer("simnet.topology.builds", "count", "lower"),
    layer("simnet.fluid.flows", "count", "lower"),
    layer("simnet.fluid.recomputes", "count", "lower"),
    layer("simnet.fluid.solve_s", "s", "lower"),
    layer("simnet.fluid.s_per_recompute", "s", "lower"),
    layer("simmpi.world.run_s", "s", "lower"),
    layer("simmpi.fluid.run_s", "s", "lower"),
    layer("simmpi.fluid.interp_s", "s", "lower"),
    layer("model.hockney_fit_s", "s", "lower"),
    layer("model.signature_fit_failures", "count", "lower"),
    layer("model.min_error_percent", "%", "higher"),
    layer("model.med_undercut_cells", "count", "lower"),
    layer("scenario.cache.hit_ratio", "ratio", "higher"),
    layer("scenario.executor.worker_busy_ratio", "ratio", "higher"),
    layer("scenario.executor.makespan_excess_s", "s", "lower"),
    layer("scenario.report.render_s", "s", "lower"),
    layer("scenario.report.bytes", "bytes", "lower"),
    layer("ctnd.submit_ms", "ms", "lower"),
    layer("ctnd.stream_ms", "ms", "lower"),
    layer("ctnd.report_ms", "ms", "lower"),
    layer("ctnd.direct_run_ms", "ms", "lower"),
    layer("ctnd.roundtrip_p99_ms", "ms", "lower"),
    layer("ctnd.rejected", "count", "lower"),
    layer("ctnd.queue_depth", "count", "lower"),
    layer("obs.trace_overhead_ratio", "ratio", "lower"),
];

/// How large a workload runs: the benchmark's own size, or a reduced
/// size for the smoke tests that exercise every workload and check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The benchmark's workloads as `BENCHMARK.json` describes them.
    Full,
    /// Same workloads and checks over small fabrics and grids.
    Smoke,
}

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct Config {
    /// Workload name (one of [`WORKLOADS`]).
    pub workload: String,
    /// Seed every generated input derives from.
    pub seed: u64,
    /// Measurement window in seconds.
    pub seconds: f64,
    /// Report per-layer metrics from a traced run instead of the
    /// end-to-end ones.
    pub trace: bool,
    /// Workload size.
    pub scale: Scale,
    /// Where a traced run writes its spans (`None`: keep them in memory).
    pub out_dir: Option<PathBuf>,
}

/// What a workload run hands back.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (batch: cells; daemon: runs).
    pub attempted: u64,
    /// Operations that failed, were refused or returned a non-`ok` result.
    pub failed: u64,
    /// Output checks that did not hold.
    pub problems: Vec<String>,
    /// Measured metrics, by name.
    pub metrics: Vec<(&'static str, f64)>,
    /// Provenance and digests, printed before the result line.
    pub info: Vec<(String, String)>,
}

impl Outcome {
    /// Records a check; a false `ok` fails the run with `what` (listed
    /// once however many iterations repeat it).
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let problem = what();
            if !self.problems.contains(&problem) {
                self.problems.push(problem);
            }
        }
    }

    /// Sets a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.metrics.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.metrics.push((name, value)),
        }
    }

    /// A metric's value, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _)| *n == name).map(|m| m.1)
    }

    /// Adds a provenance line.
    pub fn note(&mut self, key: &str, value: impl ToString) {
        self.info.push((key.to_string(), value.to_string()));
    }

    /// True when every output check held and nothing failed.
    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0 && self.attempted > 0
    }
}

/// Runs one workload.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let steal_before = util::cpu_steal_secs();
    let mut out = match cfg.workload.as_str() {
        "packet-sweep" | "fluid-dragonfly" => batch::run(cfg)?,
        "daemon-serve" => daemon::run(cfg)?,
        other => {
            return Err(format!(
                "unknown workload {other:?} (expected one of {WORKLOADS:?})"
            ))
        }
    };
    let rss = util::peak_rss_mb();
    if !cfg.trace {
        out.set("peak_rss_mb", rss);
        out.set(
            "ok_ratio",
            1.0 - out.failed as f64 / out.attempted.max(1) as f64,
        );
    }
    out.note("peak_rss_mb", rss);
    out.note("workload", &cfg.workload);
    out.note("seed", cfg.seed);
    out.note("seconds", cfg.seconds);
    out.note("trace", u8::from(cfg.trace));
    out.note("nproc", util::nproc());
    out.note("cpu_model", util::cpu_model());
    out.note("commit", util::commit());
    if let (Some(a), Some(b)) = (steal_before, util::cpu_steal_secs()) {
        out.note("cpu_steal_s", b - a);
    }
    Ok(out)
}

/// The metric table a run reports: end-to-end with tracing off,
/// per-layer with tracing on.
pub fn reported(trace: bool) -> &'static [MetricDef] {
    if trace {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

/// Renders the result line: `correct`, `attempted`, `failed` and every
/// reported metric with its unit. A per-layer metric the workload did
/// not measure reads 0 (the layer did no work); a missing end-to-end
/// metric is a bug in the workload code and fails the run.
pub fn result_line(out: &Outcome, trace: bool) -> String {
    let mut correct = out.correct();
    let mut fields = Vec::new();
    for def in reported(trace) {
        let value = match out.get(def.name) {
            Some(v) if v.is_finite() => v,
            _ if trace => 0.0,
            _ => {
                correct = false;
                0.0
            }
        };
        fields.push(format!(
            "{}: {{\"value\": {}, \"unit\": {}}}",
            json::string(def.name),
            json::number(value),
            json::string(def.unit)
        ));
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        fields.join(", ")
    )
}
