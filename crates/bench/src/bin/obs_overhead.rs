//! The hydra-obs overhead gate: metrics collection must cost a query batch
//! less than 3 % (`docs/observability.md`). One trained engine answers the
//! same batch with collection off and on, in alternating order so host
//! drift lands on both sides; the two medians are compared and the process
//! exits non-zero at or above the gate. That on/off changes no answer bit
//! is `obs_parity.rs`'s job, not this binary's.

use hydra_core::engine::LinkageEngine;
use hydra_core::model::{Hydra, HydraConfig, PairTask};
use hydra_core::signals::{SignalConfig, Signals};
use hydra_datagen::{Dataset, DatasetConfig};
use std::hint::black_box;
use std::time::Instant;

/// Collection overhead at or above this share of a batch fails the gate.
const GATE_PCT: f64 = 3.0;
/// Off/on rounds per run; odd, so each median is a measured batch.
const ROUNDS: usize = 101;
/// Fewer rounds than this cannot carry a median worth gating on.
const MIN_ROUNDS: usize = 5;

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// Time `rounds` off/on batch pairs — `batch(on)` runs one batch with
/// collection off or on and returns its seconds — swapping which side goes
/// first every round, and return the overhead of "on" in percent of the
/// "off" median. `Err` when there are too few rounds to judge or the
/// overhead reaches [`GATE_PCT`].
fn gate(rounds: usize, mut batch: impl FnMut(bool) -> f64) -> Result<f64, String> {
    if rounds < MIN_ROUNDS {
        return Err(format!(
            "{rounds} rounds measured, at least {MIN_ROUNDS} needed"
        ));
    }
    let (mut off, mut on) = (Vec::with_capacity(rounds), Vec::with_capacity(rounds));
    for round in 0..rounds {
        let on_first = round % 2 == 1;
        for collecting in [on_first, !on_first] {
            let secs = batch(collecting);
            if collecting { &mut on } else { &mut off }.push(secs);
        }
    }
    let (off, on) = (median(off), median(on));
    let pct = (on / off - 1.0) * 100.0;
    if pct >= GATE_PCT {
        return Err(format!(
            "collection costs {pct:+.2} % per batch ({:.3} ms on vs {:.3} ms off), \
             gate is < {GATE_PCT} %",
            on * 1e3,
            off * 1e3
        ));
    }
    Ok(pct)
}

fn main() {
    let n = 100u32;
    let dataset = Dataset::generate(DatasetConfig::english(n as usize, 47));
    let signals = Signals::extract(
        &dataset,
        &SignalConfig {
            lda_iterations: 10,
            infer_iterations: 4,
            ..Default::default()
        },
    );
    let mut labels: Vec<(u32, u32, bool)> = (0..n / 5).map(|i| (i, i, true)).collect();
    labels.extend((0..n / 5).map(|i| (i, (i + n / 2) % n, false)));
    let trained = Hydra::new(HydraConfig::default())
        .fit(
            &dataset,
            &signals,
            vec![PairTask {
                left_platform: 0,
                right_platform: 1,
                labels,
                unlabeled_whitelist: None,
            }],
        )
        .expect("fit");
    let graphs = dataset.platforms.iter().map(|p| p.graph.clone()).collect();
    let engine = LinkageEngine::new(trained.model, &signals, graphs).expect("engine");
    let lefts: Vec<u32> = (0..n).collect();

    let result = gate(ROUNDS, |on| {
        let _scope = on.then(hydra_obs::install);
        let start = Instant::now();
        black_box(engine.query_batch(0, black_box(&lefts)).expect("query"));
        start.elapsed().as_secs_f64()
    });
    match result {
        Ok(pct) => println!(
            "obs_overhead OK: {pct:+.2} % per batch of {n} queries \
             (medians of {ROUNDS} alternating rounds, gate < {GATE_PCT} %)"
        ),
        Err(why) => {
            eprintln!("obs_overhead FAILED: {why}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_medians_read_zero_percent() {
        assert_eq!(gate(7, |_| 0.010), Ok(0.0));
    }

    #[test]
    fn a_five_percent_slower_on_series_fails_the_gate() {
        // One slow outlier per side must not move either median.
        let mut calls = 0;
        let result = gate(9, |on| {
            calls += 1;
            match (on, calls) {
                (_, 3 | 4) => 1.0,
                (true, _) => 0.0105,
                (false, _) => 0.0100,
            }
        });
        let why = result.expect_err("5 % is over the 3 % gate");
        assert!(why.contains("+5.00 %"), "{why}");
    }

    #[test]
    fn sides_alternate_which_goes_first() {
        let mut order = Vec::new();
        gate(MIN_ROUNDS, |on| {
            order.push(on);
            1.0
        })
        .expect("equal series pass");
        assert_eq!(order[..4], [false, true, true, false]);
        assert_eq!(order.len(), 2 * MIN_ROUNDS);
    }

    #[test]
    fn too_few_rounds_is_an_error_not_a_pass() {
        let result = gate(MIN_ROUNDS - 1, |_| 0.010);
        assert!(result.is_err(), "{result:?}");
    }
}
