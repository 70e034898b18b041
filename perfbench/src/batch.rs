//! The two batch workloads: `packet-sweep` and `fluid-dragonfly`.
//!
//! One iteration is what a `ctnsim run` user waits for: a fresh
//! [`Session`] (so the calibration cache starts cold), one
//! `run_many_with` over the workload's specs, and the JSON report
//! rendered. Iterations repeat until the measurement window is spent.
//! A traced run instead times untraced/traced iteration pairs, then
//! re-drives each layer through its public entry point
//! (calibration, topology build, `FluidWorld`, `FluidSim`) to attribute
//! the time.

use crate::trace::{self, Tracer};
use crate::util::digest;
use crate::{Config, Outcome, Scale};
use contention_lab::presets::ClusterPreset;
use contention_model::hockney::HockneyParams;
use contention_scenario::executor::cell_seed;
use contention_scenario::prelude::*;
use contention_scenario::{topology, workload};
use contention_stats::descriptive::median;
use simmpi::{FluidWorld, Op};
use simnet::fluid::FluidSim;
use simnet::obs::{MarkKind, TelemetryConfig};
use std::time::Instant;

/// Session workers of every measured iteration.
pub const WORKERS: usize = 2;

/// Measured iterations per run, at least (each one also sets up once,
/// so `setup_s` is always a median of several set-ups).
pub const MIN_ITERATIONS: usize = 3;

/// Untraced/traced iteration pairs of a traced run, at least;
/// `obs.trace_overhead_ratio` is the median of their ratios.
pub const MIN_OVERHEAD_PAIRS: usize = 3;

/// The packet builtins of `packet-sweep`: the paper's three testbeds
/// plus multi-hop and irregular fabrics. `torus-neighbor-exchange` is
/// left out for its length alone: its single 17 s cell would set the
/// makespan of the whole sweep.
pub const PACKET_BUILTINS: [&str; 11] = [
    "paper-fast-ethernet",
    "paper-gigabit-ethernet",
    "paper-myrinet",
    "fat-tree-uniform",
    "oversubscribed-tree-skewed",
    "incast-burst",
    "sparse-star",
    "permutation-lossless",
    "mixed-phases-tree",
    "torus3d-random-permutation",
    "dragonfly-adversarial-uniform",
];

fn builtin(name: &str) -> Result<ScenarioSpec, String> {
    registry::by_name(name).ok_or_else(|| format!("builtin {name:?} is missing"))
}

/// The specs a batch workload runs.
pub fn specs(workload: &str, scale: Scale) -> Result<Vec<ScenarioSpec>, String> {
    let smoke = scale == Scale::Smoke;
    match workload {
        "packet-sweep" if smoke => ["incast-burst", "permutation-lossless", "paper-myrinet"]
            .iter()
            .map(|n| {
                let mut s = builtin(n)?;
                s.sweep.nodes.truncate(1);
                s.sweep.message_bytes.truncate(1);
                s.sweep.warmup = 0;
                s.sweep.reps = 1;
                Ok(s)
            })
            .collect(),
        "packet-sweep" => PACKET_BUILTINS.iter().map(|n| builtin(n)).collect(),
        "fluid-dragonfly" => {
            let mut spec = builtin("dragonfly-4k-adversarial")?;
            if smoke {
                let TopologySpec::Dragonfly {
                    groups,
                    routers_per_group,
                    hosts_per_router,
                    ..
                } = &mut spec.topology
                else {
                    return Err("dragonfly-4k-adversarial is no longer a dragonfly".to_string());
                };
                (*groups, *routers_per_group, *hosts_per_router) = (4, 4, 2);
                spec.sweep.nodes = vec![32];
                spec.validate().map_err(|e| e.to_string())?;
            }
            Ok(vec![spec])
        }
        other => Err(format!("{other:?} is not a batch workload")),
    }
}

/// One measured iteration.
struct Iteration {
    wall: f64,
    setup: f64,
    json: String,
    report: Report,
    metrics: SessionMetrics,
}

/// Runs the specs once in a fresh session: from the run call until the
/// JSON report is rendered.
fn iterate(
    specs: &[ScenarioSpec],
    seed: u64,
    workers: usize,
    telemetry: bool,
    tracer: &Tracer,
) -> Result<Iteration, String> {
    let session = Session::builder()
        .workers(workers)
        .base_seed(seed)
        .telemetry_config(telemetry.then(|| TelemetryConfig {
            // Room for every mark of the largest packet cell, so the
            // transport counts are exact (`marks_dropped` shows if not).
            marks_capacity: 1 << 21,
            ..TelemetryConfig::default()
        }))
        .build()
        .map_err(|e| e.to_string())?;
    let t0 = Instant::now();
    let mut setup = 0.0;
    let mut started = 0;
    let (report, json) = tracer.span("scenario.iteration", || {
        let report = tracer.span("scenario.session.run", || {
            session.run_many_with(specs, &mut |event: RunEvent<'_>| match event {
                RunEvent::BatchStarted { .. } => {
                    setup = t0.elapsed().as_secs_f64();
                    started += 1;
                    if started == specs.len() {
                        tracer.record("scenario.setup", tracer.offset(t0), setup);
                    }
                }
                RunEvent::CellFinished { metrics, .. } => tracer.record(
                    "scenario.executor.cell",
                    tracer.offset(t0) + metrics.start_secs,
                    metrics.wall_secs,
                ),
                RunEvent::BatchFinished { .. } => {}
            })
        });
        let report = report.map_err(|e| e.to_string())?;
        let json = tracer.span("scenario.report.render", || {
            report.render(ReportFormat::Json)
        });
        Ok::<_, String>((report, json))
    })?;
    let wall = t0.elapsed().as_secs_f64();
    let metrics = session.metrics().unwrap_or_default();
    Ok(Iteration {
        wall,
        setup,
        json,
        report,
        metrics,
    })
}

/// Bandwidth of the link every host of `topology` sends and receives
/// through.
fn host_link_bandwidth(topology: &TopologySpec) -> Result<f64, String> {
    Ok(match topology {
        TopologySpec::Preset { preset } => {
            ClusterPreset::all()
                .into_iter()
                .find(|p| p.name == preset.as_str())
                .ok_or_else(|| format!("unknown preset {preset:?}"))?
                .edge_link
                .bandwidth_bytes_per_sec
        }
        TopologySpec::SingleSwitch { link, .. }
        | TopologySpec::FatTree { link, .. }
        | TopologySpec::Torus2d { link, .. }
        | TopologySpec::Torus3d { link, .. } => link.bandwidth_bytes_per_sec,
        TopologySpec::StarOfSwitches { edge_link, .. } | TopologySpec::Tree { edge_link, .. } => {
            edge_link.bandwidth_bytes_per_sec
        }
        TopologySpec::Dragonfly { host_link, .. } => host_link.bandwidth_bytes_per_sec,
    })
}

/// The wire bound of a cell: the MED bandwidth bound (Claim 2) with `β`
/// the inverse of the host link's bandwidth. Every byte a rank sends or
/// receives crosses its host's link, so no run on either backend can
/// finish sooner.
///
/// The `model_secs` column is the full Claim 3 bound under the *fitted*
/// Hockney parameters. Its start-up term `max(Δs, Δr)·α` holds only on
/// the paper's 1-port model; the simulator's concurrent connections
/// overlap their start-ups, so a contention-free cell may finish below
/// it. That is model error, listed as `med_undercut` lines and counted
/// by `model.med_undercut_cells`, not wrong output.
fn wire_bound(spec: &ScenarioSpec, cell: &CellResult) -> Result<f64, String> {
    let beta = 1.0 / host_link_bandwidth(&spec.topology)?;
    Ok(workload::model_bound(
        &spec.workload,
        cell.n,
        cell.message_bytes,
        cell.cell_seed,
        &HockneyParams::new(0.0, beta),
    ))
}

/// Output checks on one report: every cell `ok`, and every repetition
/// of every cell at or above the cell's wire bound. Returns the cell
/// count, the number of non-`ok` cells and the cells that undercut
/// their fitted MED bound.
pub fn check_report(
    report: &Report,
    specs: &[ScenarioSpec],
    out: &mut Outcome,
) -> (u64, u64, Vec<String>) {
    let mut cells = 0;
    let mut bad = 0;
    let mut undercuts = Vec::new();
    for batch in &report.batches {
        let spec = specs.iter().find(|s| s.name == batch.scenario);
        out.check(spec.is_some(), || {
            format!("report names an unknown scenario {:?}", batch.scenario)
        });
        for cell in &batch.cells {
            cells += 1;
            let at = || format!("{} n={} m={}", batch.scenario, cell.n, cell.message_bytes);
            if !cell.status.is_ok() {
                bad += 1;
                out.check(false, || format!("{}: status {}", at(), cell.status.name()));
                continue;
            }
            if let Some(spec) = spec {
                match wire_bound(spec, cell) {
                    Ok(bound) => out.check(cell.min_secs >= bound, || {
                        format!(
                            "{}: simulated {} s beats the wire bound {bound} s",
                            at(),
                            cell.min_secs
                        )
                    }),
                    Err(e) => out.check(false, || format!("{}: {e}", at())),
                }
            }
            if cell.error_percent < 0.0 {
                undercuts.push(format!("{}: {:+.2}%", at(), cell.error_percent));
            }
        }
    }
    (cells, bad, undercuts)
}

fn expected_cells(specs: &[ScenarioSpec]) -> u64 {
    specs
        .iter()
        .map(|s| (s.sweep.nodes.len() * s.sweep.message_bytes.len()) as u64)
        .sum()
}

/// Runs one iteration and folds its checks and counts into `out`;
/// `None` when the run itself failed.
fn checked(
    specs: &[ScenarioSpec],
    cfg: &Config,
    workers: usize,
    telemetry: bool,
    tracer: &Tracer,
    reference: &mut Option<String>,
    out: &mut Outcome,
) -> Option<Iteration> {
    match iterate(specs, cfg.seed, workers, telemetry, tracer) {
        Ok(it) => {
            let (cells, bad, undercuts) = check_report(&it.report, specs, out);
            out.attempted += cells;
            out.failed += bad;
            match reference {
                None => {
                    // The report is the same on every iteration (checked
                    // below), so its undercuts are listed once.
                    for u in undercuts {
                        out.note("med_undercut", u);
                    }
                    *reference = Some(it.json.clone());
                }
                Some(first) => out.check(*first == it.json, || {
                    format!(
                        "report bytes differ from the one-worker reference \
                         ({workers} workers, telemetry {telemetry})"
                    )
                }),
            }
            Some(it)
        }
        Err(e) => {
            out.attempted += expected_cells(specs);
            out.failed += expected_cells(specs);
            out.check(false, || format!("run failed: {e}"));
            None
        }
    }
}

/// Runs a batch workload.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let specs = specs(&cfg.workload, cfg.scale)?;
    let mut out = Outcome::default();
    out.note("workers", WORKERS);
    out.note("specs", specs.len());
    out.note("cells_per_iteration", expected_cells(&specs));
    if cfg.trace {
        traced(cfg, &specs, &mut out);
    } else {
        measured(cfg, &specs, &mut out);
    }
    Ok(out)
}

/// The end-to-end run: a one-worker iteration (the determinism
/// reference, and the warm-up: it is not timed), then two-worker
/// iterations until the window is spent.
fn measured(cfg: &Config, specs: &[ScenarioSpec], out: &mut Outcome) {
    let off = Tracer::new(false, Instant::now(), 0);
    let mut reference = None;
    // Set-up runs before any cell, so the reference's counts too.
    let mut setups: Vec<f64> = checked(specs, cfg, 1, false, &off, &mut reference, out)
        .map(|it| it.setup)
        .into_iter()
        .collect();
    let mut iterations = Vec::new();
    let start = Instant::now();
    while iterations.len() < MIN_ITERATIONS || start.elapsed().as_secs_f64() < cfg.seconds {
        match checked(specs, cfg, WORKERS, false, &off, &mut reference, out) {
            Some(it) => iterations.push(it),
            None => break,
        }
    }
    if let Some(json) = &reference {
        out.note("report_digest", digest(json.as_bytes()));
    }
    let walls: Vec<f64> = iterations.iter().map(|i| i.wall).collect();
    setups.extend(iterations.iter().map(|i| i.setup));
    let walls_ms: Vec<f64> = walls.iter().map(|w| w * 1e3).collect();
    let cells: usize = iterations.iter().map(|i| i.report.cell_count()).sum();
    out.set("wall_s", median(&walls).unwrap_or(0.0));
    out.set("setup_s", median(&setups).unwrap_or(0.0));
    // A batch caller waits for the whole report: its latency is the
    // iteration's.
    out.set("latency_p50_ms", median(&walls_ms).unwrap_or(0.0));
    out.set("runs_per_s", cells as f64 / walls.iter().sum::<f64>());
    out.note("iterations", iterations.len());
    out.note("walls_s", format!("{walls:.3?}"));
    out.note("setups_s", format!("{setups:.4?}"));
}

/// The per-layer run: the one-worker reference, then back-to-back
/// untraced/traced iteration pairs (at least [`MIN_OVERHEAD_PAIRS`],
/// more while the window lasts), alternating which side runs first. Each
/// pair shares the machine's state, so the median of the per-pair
/// ratios is the tracing cost with slow epochs and one-off bursts left
/// out. The last traced iteration's telemetry and spans give the layers.
fn traced(cfg: &Config, specs: &[ScenarioSpec], out: &mut Outcome) {
    let origin = Instant::now();
    let off = Tracer::new(false, origin, 0);
    let mut reference = None;
    checked(specs, cfg, 1, false, &off, &mut reference, out);
    let mut ratios = Vec::new();
    let mut last = None;
    let start = Instant::now();
    while ratios.len() < MIN_OVERHEAD_PAIRS || start.elapsed().as_secs_f64() < cfg.seconds {
        let tracer = Tracer::new(true, origin, 0);
        let mut side = |traced: bool| {
            let t = if traced { &tracer } else { &off };
            checked(specs, cfg, WORKERS, traced, t, &mut reference, out)
        };
        let (plain, it) = if ratios.len() % 2 == 0 {
            let plain = side(false);
            (plain, side(true))
        } else {
            let it = side(true);
            (side(false), it)
        };
        let (Some(plain), Some(it)) = (plain, it) else {
            return;
        };
        ratios.push(it.wall / plain.wall);
        last = Some((it, tracer));
    }
    let Some((it, tracer)) = last else {
        return;
    };
    if let Some(json) = &reference {
        out.note("report_digest", digest(json.as_bytes()));
    }
    out.set("obs.trace_overhead_ratio", median(&ratios).unwrap_or(0.0));
    out.note("overhead_pairs", ratios.len());
    out.note("overhead_ratios", format!("{ratios:.3?}"));
    executor_layers(&it, out);
    engine_layers(&it.metrics, out);
    tracer.span("decompose", || {
        model_layers(specs, cfg.seed, &tracer, out);
        fabric_layers(specs, cfg.seed, &tracer, out);
    });
    // One render takes microseconds: time several and keep the median.
    let renders: Vec<f64> = (0..21)
        .map(|_| {
            let t = Instant::now();
            it.report.render(ReportFormat::Json);
            t.elapsed().as_secs_f64()
        })
        .collect();
    out.set("scenario.report.render_s", median(&renders).unwrap_or(0.0));
    out.set("scenario.report.bytes", it.json.len() as f64);
    let spans = tracer.into_spans();
    if specs.iter().any(|s| s.backend == Backend::Packet) {
        out.set(
            "simmpi.world.run_s",
            trace::total(&spans, "scenario.executor.cell"),
        );
    }
    out.set(
        "simnet.topology.build_s",
        trace::total(&spans, "simnet.topology.build"),
    );
    out.set(
        "simnet.topology.builds",
        trace::count(&spans, "simnet.topology.build") as f64,
    );
    out.set(
        "model.hockney_fit_s",
        trace::total(&spans, "model.hockney_fit"),
    );
    let solve = trace::total(&spans, "simnet.fluid.solve");
    let fluid_run = trace::total(&spans, "simmpi.fluid.run");
    out.set("simnet.fluid.solve_s", solve);
    out.set("simmpi.fluid.run_s", fluid_run);
    out.set("simmpi.fluid.interp_s", (fluid_run - solve).max(0.0));
    if let Some(r) = out.get("simnet.fluid.recomputes").filter(|&r| r > 0.0) {
        out.set("simnet.fluid.s_per_recompute", solve / r);
    }
    out.note("spans", spans.len());
    if let Some(dir) = &cfg.out_dir {
        let path = dir.join(format!("trace-{}-seed{}.json", cfg.workload, cfg.seed));
        match trace::write(&path, &spans) {
            Ok(()) => out.note("trace_file", path.display()),
            Err(e) => out.check(false, || format!("writing {}: {e}", path.display())),
        }
    }
}

/// Cache, executor and model-error layers of the traced iteration.
fn executor_layers(it: &Iteration, out: &mut Outcome) {
    let m = &it.metrics;
    out.set("scenario.cache.hit_ratio", m.cache.hit_rate());
    let spawned = m.workers.len().max(1) as f64;
    let phase = (m.wall_secs - it.setup).max(f64::MIN_POSITIVE);
    let busy: f64 = m.workers.iter().map(|w| w.busy_secs).sum();
    let cell_secs: f64 = m.cells.iter().map(|c| c.wall_secs).sum();
    out.set(
        "scenario.executor.worker_busy_ratio",
        busy / (spawned * phase),
    );
    out.set(
        "scenario.executor.makespan_excess_s",
        phase - cell_secs / spawned,
    );
    let errors: Vec<f64> = it
        .report
        .batches
        .iter()
        .flat_map(|b| b.cells.iter().map(|c| c.error_percent))
        .collect();
    out.set(
        "model.min_error_percent",
        errors.iter().copied().fold(f64::INFINITY, f64::min),
    );
    out.set(
        "model.med_undercut_cells",
        errors.iter().filter(|&&e| e < 0.0).count() as f64,
    );
}

/// Packet-engine, event-queue and transport counters summed over every
/// cell's engine telemetry.
fn engine_layers(m: &SessionMetrics, out: &mut Outcome) {
    let (mut events, mut pushes, mut drops, mut retransmits, mut timeouts, mut lost) =
        (0u64, 0u64, 0u64, 0u64, 0u64, 0u64);
    let mut hist: Vec<u64> = Vec::new();
    let mut engine_secs = 0.0;
    for cell in &m.cells {
        let Some(e) = &cell.engine else { continue };
        if e.events > 0 {
            engine_secs += cell.wall_secs;
        }
        events += e.events;
        pushes += e.pushes;
        drops += e.links.iter().map(|l| l.drops).sum::<u64>();
        for mark in &e.marks {
            match mark.kind {
                MarkKind::Retransmit => retransmits += mark.value,
                MarkKind::Timeout => timeouts += 1,
                _ => {}
            }
        }
        lost += e.marks_dropped;
        if hist.len() < e.pop_queue_hist.len() {
            hist.resize(e.pop_queue_hist.len(), 0);
        }
        for (slot, c) in hist.iter_mut().zip(&e.pop_queue_hist) {
            *slot += c;
        }
    }
    out.set("simnet.engine.events", events as f64);
    out.set("simnet.event.pushes", pushes as f64);
    if engine_secs > 0.0 {
        out.set("simnet.engine.events_per_s", events as f64 / engine_secs);
    }
    out.set("simnet.event.queue_len_p50", log2_hist_median(&hist));
    out.set("simnet.transport.drops", drops as f64);
    out.set("simnet.transport.retransmits", retransmits as f64);
    out.set("simnet.transport.timeouts", timeouts as f64);
    out.set("simnet.transport.marks_dropped", lost as f64);
}

/// Median of a log2 histogram (bucket 0 counts zeros, bucket `k` counts
/// `[2^(k-1), 2^k)`), as the lower edge of the bucket holding it.
pub fn log2_hist_median(buckets: &[u64]) -> f64 {
    let total: u64 = buckets.iter().sum();
    let mut seen = 0;
    for (k, &c) in buckets.iter().enumerate() {
        seen += c;
        if c > 0 && 2 * seen >= total {
            return if k == 0 {
                0.0
            } else {
                (1u64 << (k - 1)) as f64
            };
        }
    }
    0.0
}

/// Cold Hockney fits and signature fits, each in a fresh session.
fn model_layers(specs: &[ScenarioSpec], seed: u64, tracer: &Tracer, out: &mut Outcome) {
    let mut failures = Vec::new();
    for spec in specs {
        let Ok(session) = Session::builder().workers(WORKERS).base_seed(seed).build() else {
            continue;
        };
        if let Err(e) = tracer.span("model.hockney_fit", || session.calibrate_hockney(spec)) {
            out.check(false, || {
                format!("{}: Hockney calibration failed: {e}", spec.name)
            });
        }
        if let Err(e) = tracer.span("model.signature_fit", || session.calibrate_signature(spec)) {
            failures.push(format!("{}: {e}", spec.name));
        }
    }
    out.set("model.signature_fit_failures", failures.len() as f64);
    for f in failures {
        out.note("signature_fit_failure", f);
    }
}

/// Re-drives each cell's topology build and, on the fluid tier, the
/// interpreter and the bare max-min solver over the cell's flows.
fn fabric_layers(specs: &[ScenarioSpec], seed: u64, tracer: &Tracer, out: &mut Outcome) {
    let (mut flows, mut recomputes) = (0u64, 0u64);
    for spec in specs {
        // The calibration world every cold run builds first.
        if let Err(e) = tracer.span("simnet.topology.build", || {
            topology::build_world(spec, 2, seed)
        }) {
            out.check(false, || format!("{}: calibration world: {e}", spec.name));
        }
        for &n in &spec.sweep.nodes {
            for &m in &spec.sweep.message_bytes {
                let cseed = cell_seed(&spec.name, seed, n, m);
                if spec.backend == Backend::Packet {
                    let built = tracer.span("simnet.topology.build", || {
                        topology::build_world(spec, n, cseed)
                    });
                    out.check(built.is_ok(), || {
                        format!("{} n={n}: world build failed", spec.name)
                    });
                    continue;
                }
                let built = tracer.span("simnet.topology.build", || {
                    topology::build_fluid_fabric(spec, n, cseed)
                });
                let Ok((topo, hosts, mpi)) = built else {
                    out.check(false, || {
                        format!("{} n={n}: fluid fabric build failed", spec.name)
                    });
                    continue;
                };
                let programs = workload::programs(&spec.workload, n, m, cseed);
                let world = FluidWorld::new(&topo, hosts.clone(), mpi);
                tracer.span("simmpi.fluid.run", || world.run(programs.clone()));
                let mut sim = FluidSim::new(&topo);
                // The finish-coalescing window `FluidWorld` runs with.
                sim.set_finish_window(1e-2);
                let mut started = 0u64;
                for (rank, program) in programs.iter().enumerate() {
                    for op in program {
                        if let Op::Transfer { sends, .. } = op {
                            for &(dst, bytes) in sends {
                                sim.start_flow(hosts[rank], hosts[dst], bytes, started);
                                started += 1;
                            }
                        }
                    }
                }
                let done = tracer.span("simnet.fluid.solve", || sim.run_to_completion());
                out.check(done.len() as u64 == started, || {
                    format!(
                        "{}: {} of {started} replayed flows completed",
                        spec.name,
                        done.len()
                    )
                });
                flows += started;
                recomputes += sim.recomputes();
            }
        }
    }
    out.set("simnet.fluid.flows", flows as f64);
    out.set("simnet.fluid.recomputes", recomputes as f64);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log2_median_picks_the_bucket_holding_half() {
        assert_eq!(log2_hist_median(&[]), 0.0);
        assert_eq!(log2_hist_median(&[5]), 0.0);
        // values: one 0, three in [1,2), four in [4,8)
        assert_eq!(log2_hist_median(&[1, 3, 0, 4]), 1.0);
        assert_eq!(log2_hist_median(&[0, 1, 0, 4]), 4.0);
    }

    #[test]
    fn beating_the_wire_fails_and_undercutting_med_is_listed() {
        let specs = specs("packet-sweep", Scale::Smoke).unwrap();
        let session = Session::builder().workers(1).build().unwrap();
        let mut report = session.run_many(&specs).unwrap();
        let mut out = Outcome::default();
        check_report(&report, &specs, &mut out);
        assert!(out.problems.is_empty(), "{:?}", out.problems);

        let spec = specs.iter().find(|s| s.name == report.batches[0].scenario);
        let cell = &mut report.batches[0].cells[0];
        cell.error_percent = -1.0;
        let (_, _, undercuts) = check_report(&report, &specs, &mut out);
        assert_eq!(undercuts.len(), 1);
        assert!(out.problems.is_empty(), "{:?}", out.problems);

        let cell = &mut report.batches[0].cells[0];
        cell.min_secs = wire_bound(spec.unwrap(), cell).unwrap() * 0.99;
        check_report(&report, &specs, &mut out);
        assert_eq!(out.problems.len(), 1, "{:?}", out.problems);
        assert!(out.problems[0].contains("beats the wire bound"));
    }
}
