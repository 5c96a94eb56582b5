//! Ablation: contribution of each heterogeneous-behavior feature block.
//!
//! Not a paper figure: it measures what each design choice of Section 5
//! buys. We retrain HYDRA with one Section-5 feature block
//! zeroed out at a time (attributes / face / topic / genre / sentiment /
//! style / location sensor / media sensor) and report the precision/recall
//! deltas, quantifying how much each modality carries. The "all blocks"
//! row is the reference model.

use hydra_bench::{emit, english_setting, scale_factor};
use hydra_core::features::{
    ATTR_OFFSET, FACE_OFFSET, GENRE_OFFSET, LOCATION_OFFSET, MEDIA_OFFSET, SENTI_OFFSET,
    STYLE_OFFSET, TOPIC_OFFSET,
};
use hydra_core::model::{Hydra, PairTask};
use hydra_eval::metrics::evaluate;
use hydra_eval::{prepare, SeriesTable};

/// Feature blocks as (name, start, end) ranges in the 40-d layout.
fn blocks() -> Vec<(&'static str, usize, usize)> {
    vec![
        ("attributes", ATTR_OFFSET, FACE_OFFSET),
        ("face", FACE_OFFSET, TOPIC_OFFSET),
        ("topic", TOPIC_OFFSET, GENRE_OFFSET),
        ("genre", GENRE_OFFSET, SENTI_OFFSET),
        ("sentiment", SENTI_OFFSET, STYLE_OFFSET),
        ("style", STYLE_OFFSET, LOCATION_OFFSET),
        ("location", LOCATION_OFFSET, MEDIA_OFFSET),
        ("media", MEDIA_OFFSET, MEDIA_OFFSET + 5),
    ]
}

fn main() {
    let n = (250.0 * scale_factor()).round() as usize;
    let prepared = prepare(english_setting(n.max(80), 0xAB1A));
    let pair = &prepared.pairs[0];

    let mut table = SeriesTable::new(
        "Ablation — drop one feature block (English, HYDRA-M)",
        "block#",
        vec!["precision".into(), "recall".into(), "f1".into()],
    );
    println!(
        "{:<12} {:>10} {:>8} {:>8}",
        "dropped", "precision", "recall", "F1"
    );

    // Reference plus one run per dropped block (dropping = zeroing the block
    // in every candidate feature vector after filling).
    let mut names = vec!["(none)".to_string()];
    names.extend(blocks().iter().map(|b| b.0.to_string()));
    for (row, name) in names.iter().enumerate() {
        let drop = if row == 0 {
            None
        } else {
            Some(blocks()[row - 1])
        };
        let task = PairTask {
            left_platform: pair.left_platform,
            right_platform: pair.right_platform,
            labels: pair.labels.clone(),
            unlabeled_whitelist: None,
        };
        let mut trained = Hydra::new(prepared.setting.hydra.clone())
            .fit(&prepared.dataset, &prepared.signals, vec![task])
            .expect("fit");
        if let Some((_, lo, hi)) = drop {
            // Zero the block in the expansion AND in the candidate features,
            // retraining cheaply by re-solving on the masked expansion.
            trained.tasks[0].features.zero_block(lo, hi);
            let mut masked = trained.model.solution.expansion.clone();
            for r in 0..masked.rows() {
                masked.row_mut(r)[lo..hi].iter_mut().for_each(|v| *v = 0.0);
            }
            trained.model.solution.set_expansion(masked);
        }
        let prf = evaluate(
            &trained.predict(0),
            &pair.labels,
            prepared.dataset.num_persons(),
        );
        println!(
            "{name:<12} {:>10.3} {:>8.3} {:>8.3}",
            prf.precision, prf.recall, prf.f1
        );
        table.push_row(row as f64, vec![prf.precision, prf.recall, prf.f1]);
    }
    emit("ablation_features", &table);
    println!("\nrow 0 = full model; rows 1..8 drop attributes, face, topic, genre,");
    println!("sentiment, style, location, media respectively.");
}
