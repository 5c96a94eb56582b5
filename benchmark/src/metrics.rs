//! The benchmark's specification — `BENCHMARK.json`, the one place metric
//! names, units and bounds are written down — and the reduction from a
//! run's samples to the end-to-end values.

use crate::stats::{highest_supported_percentile, median_f64, median_rate, percentile};
use crate::target::Samples;
use crate::workloads::RunResult;
use serde::Value;

/// One metric as `BENCHMARK.json` lists it. `bound` is the share of the
/// parent's median by which an end-to-end metric may worsen (per-layer
/// metrics have none).
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub bound: Option<f64>,
}

/// What `BENCHMARK.json` says.
pub struct Spec {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

impl Spec {
    /// Read `BENCHMARK.json` from the current directory (the repository
    /// root; `run.sh` changes into it).
    pub fn read() -> Result<Spec, String> {
        let text = std::fs::read_to_string("BENCHMARK.json")
            .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
        Spec::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))
    }

    fn parse(text: &str) -> Result<Spec, String> {
        let json = serde_json::parse(text).map_err(|e| e.to_string())?;
        let list = |key: &str| match json.get(key) {
            Some(Value::Arr(items)) => Ok(items),
            _ => Err(format!("no {key} list")),
        };
        let text_of = |item: &Value, field: &str| match item.get(field) {
            Some(Value::Str(s)) => Ok(s.clone()),
            _ => Err(format!("an entry has no {field}")),
        };
        let metrics = |key: &str| -> Result<Vec<Metric>, String> {
            list(key)?
                .iter()
                .map(|m| {
                    Ok(Metric {
                        name: text_of(m, "name")?,
                        unit: text_of(m, "unit")?,
                        bound: match m.get("bound") {
                            Some(Value::Num(b)) => Some(*b),
                            _ => None,
                        },
                    })
                })
                .collect()
        };
        Ok(Spec {
            run_seconds: match json.get("run_seconds") {
                Some(Value::Num(s)) => *s,
                _ => return Err("no run_seconds".into()),
            },
            workloads: list("workloads")?
                .iter()
                .map(|w| text_of(w, "name"))
                .collect::<Result<_, _>>()?,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }

    pub fn unit_of(&self, name: &str) -> &str {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
            .map_or("", |m| &m.unit)
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn median_ns(samples: &[u64]) -> f64 {
    median_f64(&samples.iter().map(|&v| v as f64).collect::<Vec<_>>())
}

/// The value of one end-to-end metric, by its `BENCHMARK.json` name.
///
/// Every timing is a plain statistic over all of the workload's timed
/// samples of its kind: latencies the median and the named percentile,
/// rates the median per-batch rate, `fit_s` and `cold_start_ms` the median.
/// Where the workload's phases take no sample of a kind, each set-up's probe
/// is one measurement of that statistic and the value is the median over the
/// run's set-ups — as `setup_s` is.
pub fn end_to_end(name: &str, r: &RunResult) -> Result<f64, String> {
    fn of<T>(
        r: &RunResult,
        kind: fn(&Samples) -> &Vec<T>,
        stat: fn(&[T]) -> f64,
    ) -> Result<f64, String> {
        if !kind(&r.samples).is_empty() {
            return Ok(stat(kind(&r.samples)));
        }
        let probed: Vec<f64> = (r.probes.iter().map(kind))
            .filter(|samples| !samples.is_empty())
            .map(|samples| stat(samples))
            .collect();
        if probed.is_empty() {
            Err("no sample of the kind was taken".into())
        } else {
            Ok(median_f64(&probed))
        }
    }
    match name {
        "setup_s" => {
            let totals: Vec<f64> = r.setups.iter().map(|x| x.total_ns as f64 / 1e9).collect();
            Ok(median_f64(&totals))
        }
        "query_p50_ms" => of(r, |s| &s.query_ns, |v| median_ns(v) / 1e6),
        "query_p99_ms" => of(r, |s| &s.query_ns, |v| ms(percentile(v, 99.0))),
        "batch_queries_per_s" => of(r, |s| &s.batch, median_rate),
        "insert_p50_ms" => of(r, |s| &s.insert_ns, |v| median_ns(v) / 1e6),
        "insert_p95_ms" => of(r, |s| &s.insert_ns, |v| ms(percentile(v, 95.0))),
        "remove_p50_ms" => of(r, |s| &s.remove_ns, |v| median_ns(v) / 1e6),
        "ingest_accounts_per_s" => of(r, |s| &s.ingest, median_rate),
        "fit_s" => of(r, |s| &s.fit_ns, |v| median_ns(v) / 1e9),
        "cold_start_ms" => of(r, |s| &s.cold_start_ns, |v| median_ns(v) / 1e6),
        "artifact_mb" => Ok(r.artifact_bytes as f64 / 1e6),
        "peak_rss_mb" => Ok(r.peak_rss_bytes as f64 / 1e6),
        "linkage_f1" => Ok(r.linkage_f1),
        _ => Err("this driver does not measure it".into()),
    }
    .map_err(|e| format!("{name}: {e}"))
}

/// Sample counts behind the timings (`samples.*` the workload's own timed
/// phases, `probe.*` all set-up probes together), and for each latency the
/// workload times the highest percentile its sample supports (ten samples
/// beyond it), for the detail line printed beside the metrics.
pub fn sample_report(r: &RunResult) -> Vec<(String, f64)> {
    let mut out: Vec<(String, f64)> = vec![("samples.setup".into(), r.setups.len() as f64)];
    let counts = |s: &Samples| {
        [
            ("query", s.query_ns.len()),
            ("query_batch", s.batch.len()),
            ("insert", s.insert_ns.len()),
            ("remove", s.remove_ns.len()),
            ("ingest_batch", s.ingest.len()),
            ("fit", s.fit_ns.len()),
            ("cold_start", s.cold_start_ns.len()),
        ]
    };
    for (i, (what, n)) in counts(&r.samples).into_iter().enumerate() {
        out.push((format!("samples.{what}"), n as f64));
        let probed: usize = r.probes.iter().map(|p| counts(p)[i].1).sum();
        out.push((format!("probe.{what}"), probed as f64));
    }
    for (what, samples) in [
        ("query", &r.samples.query_ns),
        ("insert", &r.samples.insert_ns),
        ("remove", &r.samples.remove_ns),
    ] {
        if let Some(q) = highest_supported_percentile(samples.len()) {
            out.push((format!("tail.{what}.percentile"), q));
            out.push((format!("tail.{what}.ms"), ms(percentile(samples, q))));
        }
    }
    out.extend(r.notes.iter().map(|&(k, v)| (format!("note.{k}"), v)));
    // 48 bits of the digest over every answer of the timed phases, in op
    // order: an exact-repeat check for `--repeat` (a float holds 53 bits).
    out.push((
        "digest.answers".into(),
        (r.samples.digest.value() & 0xFFFF_FFFF_FFFF) as f64,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Workload;
    use crate::world::SetupSample;

    fn spec() -> Spec {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        Spec::parse(&std::fs::read_to_string(path).expect(path)).expect("BENCHMARK.json")
    }

    /// `BENCHMARK.json` names the workloads the driver runs, and every
    /// end-to-end metric it lists is one the driver measures, with a bound
    /// the harness accepts.
    #[test]
    fn benchmark_json_lists_what_the_driver_measures() {
        let spec = spec();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(spec.workloads, ours);
        let ns = vec![1_000_000u64; 3];
        let samples = Samples {
            query_ns: ns.clone(),
            batch: vec![(64, 1_000_000)],
            insert_ns: ns.clone(),
            remove_ns: ns.clone(),
            ingest: vec![(512, 1_000_000)],
            fit_ns: ns.clone(),
            cold_start_ns: ns,
            ..Default::default()
        };
        let run = RunResult {
            setups: vec![SetupSample {
                total_ns: 1,
                ..Default::default()
            }],
            samples,
            probes: Vec::new(),
            linkage_f1: 0.5,
            peak_rss_bytes: 1,
            artifact_bytes: 1,
            layers: Default::default(),
            notes: Vec::new(),
        };
        assert!(spec.end_to_end.iter().any(|m| m.name == "setup_s"));
        for m in &spec.end_to_end {
            let value = end_to_end(&m.name, &run).expect("a measured metric");
            assert!(value > 0.0, "{} is never 0", m.name);
            let bound = m.bound.expect("every end-to-end metric has a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}: bound {bound}", m.name);
        }
        assert!(spec.per_layer.iter().all(|m| m.bound.is_none()));
        assert_eq!(spec.unit_of("query_p99_ms"), "ms");
    }

    /// A workload's own samples win; where it has none of a kind, the
    /// value is the median over the set-up probes of each probe's statistic.
    #[test]
    fn probes_stand_in_only_for_missing_kinds() {
        let mut run = RunResult {
            setups: Vec::new(),
            samples: Samples::default(),
            probes: Vec::new(),
            linkage_f1: 0.0,
            peak_rss_bytes: 0,
            artifact_bytes: 0,
            layers: Default::default(),
            notes: Vec::new(),
        };
        assert!(end_to_end("query_p50_ms", &run).is_err());
        // Three probes; one ran while the host was slow.
        for ns in [2_000_000, 9_000_000, 2_200_000] {
            run.probes.push(Samples {
                query_ns: vec![ns; 5],
                ..Default::default()
            });
        }
        assert_eq!(end_to_end("query_p50_ms", &run), Ok(2.2));
        assert_eq!(end_to_end("query_p99_ms", &run), Ok(2.2));
        run.samples.query_ns = vec![3_000_000; 5];
        assert_eq!(end_to_end("query_p50_ms", &run), Ok(3.0));
        assert!(end_to_end("no_such_metric", &run).is_err());
    }
}
