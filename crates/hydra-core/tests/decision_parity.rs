//! `MooSolution::decision` walks a packed copy of the expansion; the
//! row-at-a-time loop over `Kernel::eval` it replaced is the reference.
//! On a model fitted from a generated dataset the two must agree bit for
//! bit — as solved, and again after an artifact round-trip, where the
//! packed copy is re-derived at load rather than read from the bytes.

use hydra_core::artifact::LinkageModel;
use hydra_core::model::{Hydra, HydraConfig, PairTask, TrainedHydra};
use hydra_core::moo::MooSolution;
use hydra_core::signals::{SignalConfig, Signals};
use hydra_datagen::{Dataset, DatasetConfig};

fn train(n: usize, seed: u64) -> TrainedHydra {
    let dataset = Dataset::generate(DatasetConfig::english(n, seed));
    let signals = Signals::extract(
        &dataset,
        &SignalConfig {
            lda_iterations: 6,
            infer_iterations: 3,
            ..Default::default()
        },
    );
    let n = dataset.num_persons() as u32;
    let mut labels = Vec::new();
    for i in 0..n / 4 {
        labels.push((i, i, true));
        labels.push((i, (i + n / 2) % n, false));
    }
    Hydra::new(HydraConfig::default())
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
        .expect("fit")
}

/// Eq. 12 one row at a time, as `decision` computed it before the packed
/// copy existed.
fn reference_decision(sol: &MooSolution, x: &[f64]) -> f64 {
    let mut f = sol.bias;
    for (a, &alpha) in sol.alpha.iter().enumerate() {
        if alpha != 0.0 {
            f += alpha * sol.kernel.eval(sol.expansion.row(a), x);
        }
    }
    f
}

fn assert_decisions_match_reference(sol: &MooSolution, probes: &[&[f64]], ctx: &str) {
    for (i, x) in probes.iter().enumerate() {
        assert_eq!(
            sol.decision(x).to_bits(),
            reference_decision(sol, x).to_bits(),
            "{ctx}: probe {i}"
        );
    }
}

#[test]
fn decision_is_bitwise_the_row_at_a_time_reference() {
    let trained = train(40, 0xE012);
    let sol = &trained.model.solution;
    assert!(sol.alpha.len() > 100, "fixture too small to matter");

    // Probes: every candidate pair of the task and every expansion row.
    let features = &trained.tasks[0].features;
    let mut probes: Vec<&[f64]> = (0..features.len()).map(|r| features.row(r)).collect();
    probes.extend((0..sol.expansion.rows()).map(|r| sol.expansion.row(r)));
    assert_decisions_match_reference(sol, &probes, "as solved");

    // Round-trip: the packed copy is not in the bytes (they re-serialise
    // identically) and the loaded model decides identically.
    let bytes = trained.model.to_bytes();
    let mut loaded = LinkageModel::from_bytes(&bytes).expect("load");
    assert_eq!(loaded.to_bytes(), bytes);
    assert_decisions_match_reference(&loaded.solution, &probes, "after round-trip");
    for x in &probes {
        assert_eq!(
            loaded.solution.decision(x).to_bits(),
            sol.decision(x).to_bits()
        );
    }

    // The bias is read at call time, not baked into the packed copy: the
    // in-place shift `fault_sweeps.rs` uses to fake a re-fit moves every
    // decision.
    loaded.solution.bias += 0.25;
    assert_decisions_match_reference(&loaded.solution, &probes, "after a bias shift");
    for x in &probes {
        assert_ne!(
            loaded.solution.decision(x).to_bits(),
            sol.decision(x).to_bits()
        );
    }
}
