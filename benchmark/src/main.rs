//! The HYDRA benchmark driver.
//!
//! Two modes, both reached through `benchmark/run.sh`:
//!
//! * **One run** (`--workload W --seed N --seconds S --trace 0|1`): set up,
//!   execute the workload's op list, check its outputs, and print one JSON
//!   object as the last line of stdout — the end-to-end metrics untraced,
//!   the per-layer metrics traced. A correctness failure exits non-zero
//!   before any metric is printed.
//! * **The suite** (no `--trace`): every workload untraced then traced,
//!   each in its own process, every metric printed by name with its unit;
//!   `--repeat 2` runs it twice on one seed and fails when the two
//!   disagree by more than the bounds in `BENCHMARK.json`.

mod fleet;
mod ledger;
mod metrics;
mod ops;
mod stats;
mod suite;
mod target;
mod trace;
mod workloads;
mod world;

use metrics::Spec;
use serde::Value;
use workloads::{RunConfig, Scale, Workload};

const USAGE: &str = "usage: benchmark/run.sh [--workload NAME] [--seed N] [--seconds S] \
[--trace 0|1] [--smoke] [--repeat R] [--out FILE]
  with --trace: one run of one workload, result JSON on the last line
  without:      the whole suite (each workload untraced, then traced)
  workloads:    serve_query fleet_mixed ingest_backfill train_cold";

pub struct Args {
    pub workload: Option<Workload>,
    pub seed: u64,
    pub seconds: Option<f64>,
    pub trace: Option<bool>,
    pub smoke: bool,
    pub repeat: usize,
    pub out: Option<std::path::PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: None,
        smoke: false,
        repeat: 1,
        out: None,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload =
                    Some(Workload::parse(&name).ok_or_else(|| format!("unknown workload {name}"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                })
            }
            "--smoke" => args.smoke = true,
            "--repeat" => {
                args.repeat = value()?.parse().map_err(|e| format!("--repeat: {e}"))?;
                if args.repeat == 0 {
                    return Err("--repeat must be at least 1".into());
                }
            }
            "--out" => args.out = Some(value()?.into()),
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

/// A measured value as JSON. A withheld value (NaN) prints as `null`.
fn num(v: f64) -> Value {
    if v.is_nan() {
        Value::Null
    } else {
        Value::Num(v)
    }
}

fn obj(fields: Vec<(String, Value)>) -> Value {
    Value::Obj(fields)
}

/// One run of one workload; prints the detail line, then the result line.
fn single_run(args: &Args, workload: Workload, trace: bool) -> Result<(), String> {
    let spec = Spec::read()?;
    let scale = if args.smoke {
        Scale::SMOKE
    } else {
        Scale::FULL
    };
    let cfg = RunConfig {
        workload,
        seed: args.seed,
        seconds: args.seconds.unwrap_or(spec.run_seconds),
        trace,
        scale,
    };
    std::fs::create_dir_all(world::results_dir())
        .map_err(|e| format!("{}: {e}", world::results_dir().display()))?;
    let result = workloads::run(&cfg)?;

    // With tracing off the metrics are every end-to-end metric
    // `BENCHMARK.json` lists, with it on every per-layer metric; a layer
    // the workload never crosses reads 0.
    let mut metrics = Vec::new();
    if trace {
        if let Some(stray) = result
            .layers
            .keys()
            .find(|k| spec.per_layer.iter().all(|m| m.name != **k))
        {
            return Err(format!(
                "BENCHMARK.json does not list the layer metric {stray}"
            ));
        }
        for m in &spec.per_layer {
            let value = result.layers.get(m.name.as_str()).copied().unwrap_or(0.0);
            metrics.push((m, value));
        }
    } else {
        for m in &spec.end_to_end {
            metrics.push((m, metrics::end_to_end(&m.name, &result)?));
        }
    }
    let metrics = obj(metrics
        .into_iter()
        .map(|(m, value)| {
            let fields = vec![
                ("value".into(), num(value)),
                ("unit".into(), Value::Str(m.unit.clone())),
            ];
            (m.name.clone(), obj(fields))
        })
        .collect());
    let detail = obj(metrics::sample_report(&result)
        .into_iter()
        .map(|(k, v)| (k, num(v)))
        .collect());
    let line = |v: &Value| serde_json::to_string(v).map_err(|e| e.to_string());
    println!("{}", line(&obj(vec![("detail".into(), detail)]))?);
    let timed = &result.samples;
    let (probe_attempted, probe_failed) =
        (result.probes.iter()).fold((0, 0), |(a, f), p| (a + p.attempted, f + p.failed));
    println!(
        "{}",
        line(&obj(vec![
            ("correct".into(), Value::Bool(true)),
            (
                "attempted".into(),
                num((timed.attempted + probe_attempted).max(1) as f64)
            ),
            ("failed".into(), num((timed.failed + probe_failed) as f64)),
            ("metrics".into(), metrics),
        ]))?
    );
    Ok(())
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            if !e.is_empty() {
                eprintln!("benchmark: {e}");
            }
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    };
    // The single client and the library's fan-out together never use more
    // threads than the host has cores (capped at the reference host's two),
    // unless HYDRA_THREADS says otherwise.
    if std::env::var_os("HYDRA_THREADS").is_none() {
        let cores = std::thread::available_parallelism().map_or(1, usize::from);
        hydra_par::set_thread_override(Some(cores.min(2)));
    }
    let outcome = match (args.trace, args.workload) {
        (Some(trace), Some(workload)) => single_run(&args, workload, trace),
        (Some(_), None) => Err("--trace needs --workload".into()),
        (None, _) => suite::run(&args),
    };
    // Every guard (fleet, scratch directory) has been dropped by now.
    if let Err(e) = outcome {
        eprintln!("benchmark: FAILED: {e}");
        std::process::exit(1);
    }
}
