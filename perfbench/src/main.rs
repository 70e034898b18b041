//! `perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! [--out DIR]`
//!
//! Runs one workload and prints, as the last line of standard output,
//! one JSON object: `correct`, `attempted`, `failed` and `metrics` (every
//! end-to-end metric with `--trace 0`, every per-layer metric with
//! `--trace 1`, each with its unit). The lines before it give the
//! run's provenance (machine, commit, seed, sample counts, report
//! digest) and any check that failed. Exits 2 on a usage error, 1 when
//! the workload could not run at all.

use perfbench::{reported, result_line, run, Config, Scale, DEFAULT_SEED};
use std::path::PathBuf;
use std::process::ExitCode;

fn parse(args: &[String]) -> Result<Config, String> {
    let mut cfg = Config {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        scale: Scale::Full,
        out_dir: Some(PathBuf::from("perfbench/out")),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => cfg.workload = value()?.clone(),
            "--seed" => cfg.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                cfg.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !cfg.seconds.is_finite() || cfg.seconds <= 0.0 {
                    return Err("--seconds must be positive".to_string());
                }
            }
            "--trace" => {
                cfg.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--out" => cfg.out_dir = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if cfg.workload.is_empty() {
        return Err("--workload is required".to_string());
    }
    Ok(cfg)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let out = match run(&cfg) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    for (key, value) in &out.info {
        println!("# {key}: {value}");
    }
    for problem in &out.problems {
        println!("# CHECK FAILED: {problem}");
    }
    for def in reported(cfg.trace) {
        if let Some(v) = out.get(def.name) {
            println!("# {} = {v} {}", def.name, def.unit);
        }
    }
    println!("{}", result_line(&out, cfg.trace));
    ExitCode::SUCCESS
}
