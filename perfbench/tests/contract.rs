//! The benchmark's own tests: `BENCHMARK.json` agrees with the metric
//! and workload tables in code, every name is well formed, and every
//! workload passes its output checks at a reduced size, on the
//! default seed and on the held-out seed, traced and untraced.

use ctnd::json::{parse, Value};
use perfbench::{
    reported, result_line, run, Config, MetricDef, Scale, DEFAULT_SEED, END_TO_END, HELD_OUT_SEED,
    PER_LAYER, WORKLOADS,
};
use std::collections::HashSet;

fn manifest() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    parse(&text).expect("BENCHMARK.json parses")
}

fn array<'a>(doc: &'a Value, key: &str) -> &'a [Value] {
    match doc.get(key) {
        Some(Value::Array(items)) => items,
        other => panic!("{key} is not an array: {other:?}"),
    }
}

fn text<'a>(v: &'a Value, key: &str) -> &'a str {
    v.get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("missing string {key} in {v:?}"))
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.chars().next().unwrap().is_ascii_alphanumeric()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn same_metrics(listed: &[Value], table: &[MetricDef]) {
    assert_eq!(listed.len(), table.len());
    for (v, def) in listed.iter().zip(table) {
        assert_eq!(text(v, "name"), def.name);
        assert_eq!(text(v, "unit"), def.unit, "{}", def.name);
        assert_eq!(text(v, "better"), def.better, "{}", def.name);
        assert_eq!(
            v.get("bound").and_then(Value::as_f64),
            def.bound,
            "{}",
            def.name
        );
    }
}

#[test]
fn manifest_matches_the_tables_and_names_are_well_formed() {
    let doc = manifest();
    let mut keys = doc.keys();
    keys.sort_unstable();
    assert_eq!(
        keys,
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );
    let workloads: Vec<&str> = array(&doc, "workloads")
        .iter()
        .map(|w| text(w, "name"))
        .collect();
    assert_eq!(workloads, WORKLOADS);
    same_metrics(array(&doc, "end_to_end"), &END_TO_END);
    same_metrics(array(&doc, "per_layer"), &PER_LAYER);

    let mut seen = HashSet::new();
    let names = WORKLOADS
        .iter()
        .copied()
        .chain(END_TO_END.iter().chain(&PER_LAYER).map(|d| d.name));
    for name in names {
        assert!(well_formed(name), "malformed name {name:?}");
        assert!(seen.insert(name), "name {name:?} used twice");
    }
    let setup = END_TO_END.iter().find(|d| d.name == "setup_s").unwrap();
    assert_eq!((setup.unit, setup.better), ("s", "lower"));
    for def in &END_TO_END {
        let bound = def.bound.unwrap();
        assert!(bound > 0.0 && bound <= setup.bound.unwrap(), "{}", def.name);
    }
}

fn smoke(workload: &str, seed: u64, trace: bool) {
    let cfg = Config {
        workload: workload.to_string(),
        seed,
        seconds: 0.3,
        trace,
        scale: Scale::Smoke,
        out_dir: None,
    };
    let out = run(&cfg).unwrap_or_else(|e| panic!("{workload}: {e}"));
    assert!(
        out.problems.is_empty(),
        "{workload} seed {seed}: {:?}",
        out.problems
    );
    assert!(out.correct(), "{workload} seed {seed}");
    assert!(out.info.iter().any(|(k, _)| k == "report_digest"));
    if !trace {
        for def in &END_TO_END {
            let v = out
                .get(def.name)
                .unwrap_or_else(|| panic!("{workload}: no {}", def.name));
            assert!(v > 0.0, "{workload}: {} = {v}", def.name);
        }
    }
    let line = parse(&result_line(&out, trace)).expect("result line is JSON");
    let mut keys = line.keys();
    keys.sort_unstable();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    assert_eq!(line.get("correct"), Some(&Value::Bool(true)));
    let metrics = line.get("metrics").unwrap();
    let expected: Vec<&str> = reported(trace).iter().map(|d| d.name).collect();
    assert_eq!(metrics.keys(), expected);
}

#[test]
fn packet_sweep_smoke() {
    for seed in [DEFAULT_SEED, HELD_OUT_SEED] {
        smoke("packet-sweep", seed, false);
        smoke("packet-sweep", seed, true);
    }
}

#[test]
fn fluid_dragonfly_smoke() {
    for seed in [DEFAULT_SEED, HELD_OUT_SEED] {
        smoke("fluid-dragonfly", seed, false);
        smoke("fluid-dragonfly", seed, true);
    }
}

#[test]
fn daemon_serve_smoke() {
    for seed in [DEFAULT_SEED, HELD_OUT_SEED] {
        smoke("daemon-serve", seed, false);
        smoke("daemon-serve", seed, true);
    }
}

#[test]
fn unknown_workloads_are_errors() {
    let cfg = Config {
        workload: "nope".to_string(),
        seed: 1,
        seconds: 0.1,
        trace: false,
        scale: Scale::Smoke,
        out_dir: None,
    };
    assert!(run(&cfg).is_err());
}
