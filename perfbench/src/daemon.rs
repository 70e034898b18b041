//! The `daemon-serve` workload: an in-process `ctnd` under a closed loop
//! of two clients.
//!
//! `ctnd` callers submit and then block on the event stream, so each
//! client sends its next request only after the previous one completed:
//! `POST /v1/runs`, `GET …/events` until it closes, `GET …/report`. The
//! clients cycle through four small incast specs run with the seed;
//! after the first pass the daemon's shared calibration cache is
//! warm, so serving (accept, HTTP, queue, registry) dominates each
//! roundtrip. Every report must be byte-identical to a direct
//! `Session::run` of the same spec and seed, whose cells pass the batch
//! workloads' report checks.

use crate::batch::check_report;
use crate::trace::{self, Span, Tracer};
use crate::util::digest;
use crate::{Config, Outcome, Scale};
use contention_scenario::prelude::*;
use contention_stats::descriptive::{median, quantile};
use ctnd::{client, Daemon, DaemonConfig};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Specs the clients cycle through.
pub const POOL: usize = 4;
/// Closed-loop clients (each holds at most one connection).
pub const CLIENTS: usize = 2;
/// Daemons spawned (and set up) per run, half before the load phase and
/// half after it; `setup_s` is their median.
pub const SETUPS: usize = 60;
/// Completions per block; `wall_s` is the median block wall time, and
/// the p99 roundtrip the median of the blocks' p99s (a block leaves ten
/// samples beyond its p99).
pub const BLOCK: usize = 1000;
/// A traced client samples `/metrics` after this many of its runs
/// (rendering the aggregated metrics costs the daemon milliseconds, so
/// sampling more often would show up as tracing overhead).
const METRICS_EVERY: usize = 500;

/// The daemon under test: two run workers, one session worker each.
/// Completed runs are retained for 2 s instead of the default 10
/// minutes, so the registry (and the process's memory) reaches its
/// steady state within the measurement window.
fn daemon_config() -> DaemonConfig {
    DaemonConfig {
        addr: "127.0.0.1:0".to_string(),
        run_workers: 2,
        session_workers: 1,
        ttl: Duration::from_secs(2),
        ..DaemonConfig::default()
    }
}

/// Incast shapes of the pool, as (ranks, KiB per message). The seed
/// reaches the runs through `?seed=` (and the direct session's base
/// seed), so every seed puts the same amount of simulation behind the
/// serving path.
const SHAPES: [(usize, u64); POOL] = [(3, 4), (4, 8), (5, 16), (6, 32)];

/// Four small incast specs.
pub fn pool() -> Vec<ScenarioSpec> {
    SHAPES
        .iter()
        .enumerate()
        .map(|(i, &(n, kib))| {
            ScenarioBuilder::new(format!("serve-incast-{i}"))
                .single_switch(8, LinkSpec::default(), SwitchSpec::default())
                .incast(1)
                .nodes([n])
                .message_bytes([kib * 1024])
                .warmup(0)
                .reps(1)
                .build()
                .expect("generated incast spec is valid")
        })
        .collect()
}

/// One request's roundtrip.
struct Trip {
    /// Seconds since the load phase began, at completion.
    done_at: f64,
    /// POST to report, seconds.
    total: f64,
    problem: Option<String>,
}

fn get(addr: SocketAddr, path: &str) -> Result<client::HttpResponse, String> {
    client::request(addr, "GET", path, None, b"").map_err(|e| format!("GET {path}: {e}"))
}

/// Submits one spec, follows its events to the end, fetches its report
/// and compares it with the direct run's bytes.
fn roundtrip(addr: SocketAddr, body: &str, seed: u64, expected: &str, tracer: &Tracer) -> Trip {
    let t0 = Instant::now();
    let result = tracer.span("ctnd.roundtrip", || -> Result<(), String> {
        let path = format!("/v1/runs?seed={seed}");
        let posted = tracer
            .span("ctnd.submit", || {
                client::request(
                    addr,
                    "POST",
                    &path,
                    Some("application/toml"),
                    body.as_bytes(),
                )
            })
            .map_err(|e| format!("POST: {e}"))?;
        if posted.status != 202 {
            return Err(format!(
                "POST answered {}: {}",
                posted.status,
                posted.body.trim()
            ));
        }
        let id = ctnd::json::parse(&posted.body)
            .ok()
            .and_then(|v| v.get("run_id").and_then(|r| r.as_str().map(str::to_string)))
            .ok_or_else(|| format!("no run_id in {:?}", posted.body))?;
        let events = tracer.span("ctnd.stream", || {
            get(addr, &format!("/v1/runs/{id}/events"))
        })?;
        let last = events.body.lines().last().unwrap_or_default();
        if events.status != 200 || !last.contains("\"outcome\": \"ok\"") {
            return Err(format!("run {id} ended with {last:?}"));
        }
        let report = tracer.span("ctnd.report", || {
            get(addr, &format!("/v1/runs/{id}/report"))
        })?;
        if report.status != 200 || report.body != expected {
            return Err(format!(
                "run {id}: report differs from the direct run (status {})",
                report.status
            ));
        }
        Ok(())
    });
    Trip {
        done_at: 0.0,
        total: t0.elapsed().as_secs_f64(),
        problem: result.err(),
    }
}

/// `/metrics` daemon counters: (queue depth, rejected runs, cache hit rate).
fn sample_metrics(addr: SocketAddr, tracer: &Tracer) -> Option<(f64, f64, f64)> {
    let body = tracer
        .span("ctnd.metrics", || get(addr, "/metrics"))
        .ok()?
        .body;
    let doc = ctnd::json::parse(&body).ok()?;
    let d = doc.get("daemon")?;
    let num = |k: &str| d.get(k).and_then(|v| v.as_f64());
    Some((
        num("queue_depth")?,
        num("rejected_queue_full")? + num("rejected_draining")?,
        num("cache_hit_rate")?,
    ))
}

/// What one load phase measured.
struct Load {
    trips: Vec<Trip>,
    elapsed: f64,
    queue_depths: Vec<f64>,
    spans: Vec<Span>,
}

impl Load {
    fn latencies_ms(&self) -> Vec<f64> {
        self.trips.iter().map(|t| t.total * 1e3).collect()
    }

    /// Median over blocks of [`BLOCK`] consecutive roundtrips of each
    /// block's p99 (the pooled p99 when there is less than one block).
    fn p99_ms(&self) -> f64 {
        let lat = self.latencies_ms();
        let blocks: Vec<f64> = lat
            .chunks_exact(BLOCK)
            .map(|b| quantile(b, 0.99).unwrap_or(0.0))
            .collect();
        if blocks.is_empty() {
            quantile(&lat, 0.99).unwrap_or(0.0)
        } else {
            median(&blocks).unwrap_or(0.0)
        }
    }

    /// Median wall time of consecutive blocks of [`BLOCK`] completions.
    fn block_wall(&self) -> f64 {
        let done: Vec<f64> = self.trips.iter().map(|t| t.done_at).collect();
        let mut walls = Vec::new();
        let mut from = 0.0;
        for chunk in done.chunks_exact(BLOCK) {
            let end = chunk[BLOCK - 1];
            walls.push(end - from);
            from = end;
        }
        if walls.is_empty() {
            walls.push(from.max(done.last().copied().unwrap_or(self.elapsed)));
        }
        median(&walls).unwrap_or(0.0)
    }
}

/// Two closed-loop clients for `seconds`; client `c` starts at spec `c`.
fn load(
    addr: SocketAddr,
    bodies: &[String],
    expected: &[String],
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Load {
    let start = Instant::now();
    let per_client: Vec<(Vec<Trip>, Vec<f64>, Vec<Span>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                scope.spawn(move || {
                    let tracer = Tracer::new(traced, start, c << 32);
                    let (mut trips, mut depths) = (Vec::new(), Vec::new());
                    let mut i = c;
                    while start.elapsed().as_secs_f64() < seconds {
                        let k = i % bodies.len();
                        let mut trip = roundtrip(addr, &bodies[k], seed, &expected[k], &tracer);
                        trip.done_at = start.elapsed().as_secs_f64();
                        trips.push(trip);
                        i += 1;
                        if traced && c == 0 && trips.len() % METRICS_EVERY == 0 {
                            if let Some((depth, _, _)) = sample_metrics(addr, &tracer) {
                                depths.push(depth);
                            }
                        }
                    }
                    (trips, depths, tracer.into_spans())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let elapsed = start.elapsed().as_secs_f64();
    let mut out = Load {
        trips: Vec::new(),
        elapsed,
        queue_depths: Vec::new(),
        spans: Vec::new(),
    };
    for (trips, depths, spans) in per_client {
        out.trips.extend(trips);
        out.queue_depths.extend(depths);
        out.spans.extend(spans);
    }
    out.trips.sort_by(|a, b| a.done_at.total_cmp(&b.done_at));
    out
}

/// Counts a load phase's roundtrips into `out` (attempted, failed, and
/// the first few problems).
fn tally(trips: &[Trip], out: &mut Outcome) {
    out.attempted += trips.len() as u64;
    for t in trips {
        if let Some(p) = &t.problem {
            out.failed += 1;
            if out.problems.len() < 5 {
                out.problems.push(p.clone());
            }
        }
    }
}

/// Spawns `count` daemons one after another, each timed from
/// `Daemon::spawn` until it has served every spec of the pool once with
/// its cold cache; keeps the last one running.
fn set_ups(
    count: usize,
    bodies: &[String],
    expected: &[String],
    seed: u64,
    setups: &mut Vec<f64>,
    out: &mut Outcome,
) -> Result<Daemon, String> {
    let off = Tracer::new(false, Instant::now(), 0);
    let mut daemon = None;
    for _ in 0..count {
        if let Some(d) = daemon.take() {
            Daemon::shutdown(d);
        }
        let t0 = Instant::now();
        let d = Daemon::spawn(daemon_config()).map_err(|e| format!("spawn: {e}"))?;
        let trips: Vec<Trip> = (0..POOL)
            .map(|k| roundtrip(d.addr(), &bodies[k], seed, &expected[k], &off))
            .collect();
        setups.push(t0.elapsed().as_secs_f64());
        tally(&trips, out);
        daemon = Some(d);
    }
    daemon.ok_or_else(|| "no set-up ran".to_string())
}

/// Runs `daemon-serve`.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let specs = pool();
    let bodies: Vec<String> = specs.iter().map(ScenarioSpec::to_toml_string).collect();
    let direct = Session::builder()
        .workers(1)
        .base_seed(cfg.seed)
        .build()
        .map_err(|e| e.to_string())?;
    // The served reports must equal these bytes, so checking the direct
    // reports checks every served one.
    let mut expected = Vec::new();
    for spec in &specs {
        let report = direct
            .run(spec)
            .map_err(|e| format!("direct run failed: {e}"))?;
        let (_, _, undercuts) = check_report(&report, std::slice::from_ref(spec), &mut out);
        for u in undercuts {
            out.note("med_undercut", u);
        }
        expected.push(report.render(ReportFormat::Json));
    }
    out.note("report_digest", digest(expected.concat().as_bytes()));
    out.note("clients", CLIENTS);
    out.note("loop", "closed");
    out.note("run_workers", daemon_config().run_workers);
    out.note("session_workers", daemon_config().session_workers);

    // Half the set-ups before the load phase and half after it, a
    // measurement window apart, so one burst of host load cannot move
    // their median.
    let per_phase = if cfg.scale == Scale::Smoke {
        1
    } else {
        SETUPS / 2
    };
    let mut setups = Vec::new();
    let daemon = set_ups(
        per_phase,
        &bodies,
        &expected,
        cfg.seed,
        &mut setups,
        &mut out,
    )?;
    let addr = daemon.addr();
    let off = Tracer::new(false, Instant::now(), 0);

    if cfg.trace {
        let plain = load(addr, &bodies, &expected, cfg.seed, cfg.seconds / 2.0, false);
        let traced = load(addr, &bodies, &expected, cfg.seed, cfg.seconds / 2.0, true);
        tally(&plain.trips, &mut out);
        tally(&traced.trips, &mut out);
        out.set(
            "obs.trace_overhead_ratio",
            traced.block_wall() / plain.block_wall(),
        );
        let ms = |name| {
            let v: Vec<f64> = traced
                .spans
                .iter()
                .filter(|s| s.name == name)
                .map(|s| s.secs() * 1e3)
                .collect();
            median(&v).unwrap_or(0.0)
        };
        out.set("ctnd.submit_ms", ms("ctnd.submit"));
        out.set("ctnd.stream_ms", ms("ctnd.stream"));
        out.set("ctnd.report_ms", ms("ctnd.report"));
        out.set("ctnd.roundtrip_p99_ms", plain.p99_ms());
        let depth = traced.queue_depths.iter().copied().fold(0.0, f64::max);
        out.set("ctnd.queue_depth", depth);
        out.note("queue_depth_samples", traced.queue_depths.len());
        if let Some((_, rejected, hit)) = sample_metrics(addr, &off) {
            out.set("ctnd.rejected", rejected);
            out.set("scenario.cache.hit_ratio", hit);
        } else {
            out.check(false, || "GET /metrics failed".to_string());
        }
        // The same specs run directly on a warm session: the floor under
        // every roundtrip.
        let mut direct_ms = Vec::new();
        for i in 0..(20 * POOL) {
            let t = Instant::now();
            let r = direct.run(&specs[i % POOL]);
            direct_ms.push(t.elapsed().as_secs_f64() * 1e3);
            out.check(r.is_ok(), || "direct run failed".to_string());
        }
        out.set("ctnd.direct_run_ms", median(&direct_ms).unwrap_or(0.0));
        out.note("spans", traced.spans.len());
        out.note(
            "roundtrip_self_ms",
            trace::self_time(&traced.spans, "ctnd.roundtrip") * 1e3
                / traced.trips.len().max(1) as f64,
        );
        if let Some(dir) = &cfg.out_dir {
            let path = dir.join(format!("trace-{}-seed{}.json", cfg.workload, cfg.seed));
            match trace::write(&path, &traced.spans) {
                Ok(()) => out.note("trace_file", path.display()),
                Err(e) => out.check(false, || format!("writing {}: {e}", path.display())),
            }
        }
    } else {
        let measured = load(addr, &bodies, &expected, cfg.seed, cfg.seconds, false);
        tally(&measured.trips, &mut out);
        let lat = measured.latencies_ms();
        out.set("wall_s", measured.block_wall());
        out.set("latency_p50_ms", median(&lat).unwrap_or(0.0));
        out.set("runs_per_s", measured.trips.len() as f64 / measured.elapsed);
        out.note("latency_samples", lat.len());
        // Reported, not gated: the tail follows the CPU time the host
        // steals (see `cpu_steal_s`) more than it follows the program.
        out.note("latency_p99_ms", measured.p99_ms());
        out.note("p99_blocks", lat.len() / BLOCK);
    }
    Daemon::shutdown(daemon);
    if !cfg.trace {
        let last = set_ups(
            per_phase,
            &bodies,
            &expected,
            cfg.seed,
            &mut setups,
            &mut out,
        )?;
        Daemon::shutdown(last);
        out.set("setup_s", median(&setups).unwrap_or(0.0));
        out.note("setup_samples", setups.len());
        out.note("setups_s", format!("{setups:.4?}"));
    }
    Ok(out)
}
