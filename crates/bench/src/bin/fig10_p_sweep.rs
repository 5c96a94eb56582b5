//! Figure 10: precision and recall w.r.t. the utility exponent p (1..10),
//! at the 1:5 labeled:unlabeled ratio and `prepared.setting.hydra`'s default
//! (γ_L, γ_M), not the paper's tuned optimum (its Section 7.1 grid search is
//! ROADMAP item 20).
//!
//! Paper shape: both curves peak at an intermediate p (p = 6 for precision,
//! p = 5 for recall) and degrade toward p = 10 as the dominant objective
//! over-fits.

use hydra_bench::{emit, english_setting};
use hydra_core::model::{Hydra, PairTask};
use hydra_eval::metrics::evaluate;
use hydra_eval::{prepare, SeriesTable};

fn main() {
    let n = (250.0 * hydra_bench::scale_factor()).round() as usize;
    let prepared = prepare(english_setting(n.max(60), 0xA10));
    let pair = &prepared.pairs[0];

    let mut table = SeriesTable::new(
        "Figure 10 — performance w.r.t. p (labeled:unlabeled = 1:5)",
        "p",
        vec!["precision".into(), "recall".into()],
    );
    for p_exp in 1..=10 {
        let mut config = prepared.setting.hydra.clone();
        config.moo.p = p_exp as f64;
        config.moo.reweight_iters = 3;
        let task = PairTask {
            left_platform: pair.left_platform,
            right_platform: pair.right_platform,
            labels: pair.labels.clone(),
            unlabeled_whitelist: None,
        };
        let trained = Hydra::new(config)
            .fit(&prepared.dataset, &prepared.signals, vec![task])
            .expect("fit");
        let prf = evaluate(
            &trained.predict(0),
            &pair.labels,
            prepared.dataset.num_persons(),
        );
        table.push_row(p_exp as f64, vec![prf.precision, prf.recall]);
    }
    emit("fig10_p_sweep", &table);
}
