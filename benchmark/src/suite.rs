//! The suite: every workload untraced then traced, each run in its own
//! process (so peak memory is the run's own and a crash is contained),
//! every metric printed by name with its unit, and the repeatability check.

use crate::metrics::Spec;
use crate::workloads::Workload;
use crate::Args;
use serde::Value;
use std::process::{Command, Stdio};

fn as_f64(v: &Value) -> Option<f64> {
    match v {
        Value::Num(n) => Some(*n),
        _ => None,
    }
}

/// One run's parsed output.
struct RunOutput {
    /// `(name, value)` in the order printed; a withheld value is `None`.
    metrics: Vec<(String, Option<f64>)>,
    detail: Vec<(String, Option<f64>)>,
    attempted: f64,
    failed: f64,
}

fn numbers(v: Option<&Value>, nested: bool) -> Vec<(String, Option<f64>)> {
    let Some(Value::Obj(fields)) = v else {
        return Vec::new();
    };
    fields
        .iter()
        .map(|(k, v)| {
            let v = if nested { v.get("value") } else { Some(v) };
            (k.clone(), v.and_then(as_f64))
        })
        .collect()
}

fn run_one(
    args: &Args,
    workload: Workload,
    trace: bool,
    seconds: f64,
) -> Result<RunOutput, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if args.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.output().map_err(|e| format!("spawn run: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "{} (trace {}) exited with {}",
            workload.name(),
            trace as u8,
            out.status
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines = stdout.lines().rev();
    let result = lines.next().ok_or("run printed nothing")?;
    let result = serde_json::parse(result).map_err(|e| format!("result line: {e}"))?;
    let detail = lines
        .next()
        .and_then(|l| serde_json::parse(l).ok())
        .unwrap_or(Value::Null);
    if result.get("correct") != Some(&Value::Bool(true)) {
        return Err(format!("{}: outputs were not correct", workload.name()));
    }
    Ok(RunOutput {
        metrics: numbers(result.get("metrics"), true),
        detail: numbers(detail.get("detail"), false),
        attempted: result.get("attempted").and_then(as_f64).unwrap_or(0.0),
        failed: result.get("failed").and_then(as_f64).unwrap_or(0.0),
    })
}

fn read_first_line(path: &str) -> String {
    std::fs::read_to_string(path)
        .ok()
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

fn host_block(args: &Args) -> Vec<(String, Value)> {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let git = |args: &[&str]| {
        Command::new("git")
            .args(args)
            .stderr(Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    // The commit the tree was built from; `+dirty` when it has local edits
    // (the run that adds the benchmark is necessarily one of those).
    let commit = match (git(&["rev-parse", "HEAD"]), git(&["status", "--porcelain"])) {
        (Some(head), Some(status)) if status.is_empty() => head,
        (Some(head), _) => format!("{head}+dirty"),
        _ => "unknown".into(),
    };
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    vec![
        (
            "host".into(),
            Value::Obj(vec![
                ("cores".into(), Value::Num(cores as f64)),
                ("cpu_model".into(), Value::Str(cpu_model)),
                (
                    "kernel".into(),
                    Value::Str(read_first_line("/proc/sys/kernel/osrelease")),
                ),
            ]),
        ),
        (
            "threads".into(),
            Value::Num(hydra_par::num_threads() as f64),
        ),
        ("seed".into(), Value::Num(args.seed as f64)),
        ("commit".into(), Value::Str(commit)),
        ("smoke".into(), Value::Bool(args.smoke)),
    ]
}

/// Layer metrics that must repeat exactly on one seed: work counts and
/// sizes. (Timings, rates and the ratios built from them do not.)
fn repeats_exactly(spec: &Spec, name: &str) -> bool {
    let unit = spec.unit_of(name);
    (unit == "count"
        || unit == "bytes"
        || name == "candidates.recall"
        || name == "missing.filled_rows_share")
        && name != "trace.spans"
}

struct WorkloadReport {
    workload: Workload,
    untraced: RunOutput,
    traced: RunOutput,
}

impl WorkloadReport {
    fn failed_ops_share(&self) -> f64 {
        self.untraced.failed / self.untraced.attempted.max(1.0)
    }
}

fn run_all(args: &Args, spec: &Spec, seconds: f64) -> Result<Vec<WorkloadReport>, String> {
    let workloads: Vec<Workload> = match args.workload {
        Some(w) => vec![w],
        None => spec
            .workloads
            .iter()
            .map(|name| {
                Workload::parse(name)
                    .ok_or_else(|| format!("BENCHMARK.json lists an unknown workload {name}"))
            })
            .collect::<Result<_, _>>()?,
    };
    let mut reports = Vec::new();
    for workload in workloads {
        eprintln!("benchmark: {} untraced ...", workload.name());
        let untraced = run_one(args, workload, false, seconds)?;
        eprintln!("benchmark: {} traced ...", workload.name());
        let traced = run_one(args, workload, true, seconds)?;
        reports.push(WorkloadReport {
            workload,
            untraced,
            traced,
        });
    }
    Ok(reports)
}

/// Why a layer value is `null`: only `par.batch_speedup` is ever withheld.
const WITHHELD: &str =
    "withheld: more worker threads than cores would measure oversubscription, not scaling";

fn print_report(spec: &Spec, report: &WorkloadReport) {
    let w = report.workload.name();
    println!("== {w}: end-to-end (tracing off) ==");
    for (name, value) in &report.untraced.metrics {
        let value = value.unwrap_or(f64::NAN);
        println!("  {name:<38} {value:>16.4} {}", spec.unit_of(name));
    }
    println!(
        "  {:<38} {:>16.4} ratio   ({} failed of {} attempted)",
        "failed_ops_share",
        report.failed_ops_share(),
        report.untraced.failed,
        report.untraced.attempted
    );
    for (name, value) in &report.untraced.detail {
        println!("  {name:<38} {:>16.4}", value.unwrap_or(f64::NAN));
    }
    println!("== {w}: per layer (traced run) ==");
    for (name, value) in &report.traced.metrics {
        match value {
            Some(value) => println!("  {name:<38} {value:>16.4} {}", spec.unit_of(name)),
            None => println!("  {name:<38} {:>16} ({WITHHELD})", "null"),
        }
    }
}

fn report_json(report: &WorkloadReport) -> Value {
    let pairs = |rows: &[(String, Option<f64>)]| {
        Value::Obj(
            rows.iter()
                .map(|(k, v)| (k.clone(), v.map_or(Value::Null, Value::Num)))
                .collect(),
        )
    };
    let mut fields = vec![
        ("end_to_end".into(), pairs(&report.untraced.metrics)),
        (
            "failed_ops_share".into(),
            Value::Num(report.failed_ops_share()),
        ),
        ("attempted".into(), Value::Num(report.untraced.attempted)),
        ("samples".into(), pairs(&report.untraced.detail)),
        ("per_layer".into(), pairs(&report.traced.metrics)),
    ];
    if report.traced.metrics.iter().any(|(_, v)| v.is_none()) {
        fields.push(("null_reason".into(), Value::Str(WITHHELD.into())));
    }
    Value::Obj(fields)
}

/// Compare a repeat against the first pass; returns the violations.
fn compare(spec: &Spec, first: &[WorkloadReport], again: &[WorkloadReport]) -> Vec<String> {
    let mut violations = Vec::new();
    println!("== repeatability: second pass against the first, same seed ==");
    for (a, b) in first.iter().zip(again) {
        let w = a.workload.name();
        for (m, ((name, x), (_, y))) in spec
            .end_to_end
            .iter()
            .zip(a.untraced.metrics.iter().zip(&b.untraced.metrics))
        {
            let (x, y) = (x.unwrap_or(f64::NAN), y.unwrap_or(f64::NAN));
            let bound = m.bound.unwrap_or(0.0);
            let exact = name == "linkage_f1" || name == "artifact_mb";
            let spread = (y - x).abs() / x.abs().max(f64::MIN_POSITIVE);
            let ok = if exact { x == y } else { spread <= bound };
            println!(
                "  {w:<16} {name:<26} {x:>14.4} {y:>14.4}  spread {:>6.2} %  (bound {:>4.1} %{}){}",
                spread * 100.0,
                bound * 100.0,
                if exact { ", exact" } else { "" },
                if ok { "" } else { "  <-- VIOLATION" }
            );
            if !ok {
                violations.push(format!("{w}: {name} read {x} then {y}"));
            }
        }
        // Sample counts and the digest over every answer of the run.
        for ((name, x), (_, y)) in a.untraced.detail.iter().zip(&b.untraced.detail) {
            let counted = ["samples.", "probe.", "digest."]
                .iter()
                .any(|p| name.starts_with(p));
            if counted && x != y {
                println!(
                    "  {w:<16} {name:<38} {x:?} then {y:?}  <-- VIOLATION (must repeat exactly)"
                );
                violations.push(format!("{w}: {name} read {x:?} then {y:?}"));
            }
        }
        if a.untraced.failed != b.untraced.failed {
            violations.push(format!(
                "{w}: failed ops {} then {}",
                a.untraced.failed, b.untraced.failed
            ));
        }
        for ((name, x), (_, y)) in a.traced.metrics.iter().zip(&b.traced.metrics) {
            if repeats_exactly(spec, name) && x != y {
                println!(
                    "  {w:<16} {name:<38} {x:?} then {y:?}  <-- VIOLATION (count must repeat)"
                );
                violations.push(format!("{w}: count {name} read {x:?} then {y:?}"));
            }
        }
    }
    violations
}

pub fn run(args: &Args) -> Result<(), String> {
    let spec = Spec::read()?;
    let seconds = args.seconds.unwrap_or(spec.run_seconds);
    let host = host_block(args);
    println!(
        "{}",
        serde_json::to_string(&Value::Obj(host.clone())).unwrap_or_default()
    );

    let first = run_all(args, &spec, seconds)?;
    first.iter().for_each(|r| print_report(&spec, r));
    let mut violations = Vec::new();
    for pass in 1..args.repeat {
        eprintln!("benchmark: repeat pass {} ...", pass + 1);
        let again = run_all(args, &spec, seconds)?;
        violations.extend(compare(&spec, &first, &again));
    }

    // Gates over the traced numbers.
    for r in &first {
        let layer = |name: &str| {
            r.traced
                .metrics
                .iter()
                .find(|(n, _)| n == name)
                .and_then(|(_, v)| *v)
        };
        if let Some(overhead) = layer("trace.overhead_pct") {
            if overhead >= 5.0 {
                violations.push(format!(
                    "{}: tracing overhead {overhead:.2} % (limit 5 %)",
                    r.workload.name()
                ));
            }
        }
        if r.untraced.failed > 0.0 || r.traced.failed > 0.0 {
            violations.push(format!("{}: failed ops", r.workload.name()));
        }
    }

    let mut doc = host;
    doc.push(("run_seconds".into(), Value::Num(seconds)));
    doc.push((
        "workloads".into(),
        Value::Obj(
            first
                .iter()
                .map(|r| (r.workload.name().to_string(), report_json(r)))
                .collect(),
        ),
    ));
    let text = serde_json::to_string_pretty(&Value::Obj(doc)).map_err(|e| e.to_string())?;
    let out = args
        .out
        .clone()
        .unwrap_or_else(|| crate::world::results_dir().join("latest.json"));
    if let Some(dir) = out.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&out, text + "\n").map_err(|e| format!("{}: {e}", out.display()))?;
    println!("[saved {}]", out.display());

    if violations.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "{} check(s) failed:\n  {}",
            violations.len(),
            violations.join("\n  ")
        ))
    }
}
