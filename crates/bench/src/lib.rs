//! Shared harness utilities for the figure-reproduction binaries.
//!
//! Every binary in `src/bin/` regenerates one evaluation artifact of the
//! paper (Figures 2a and 8–15). The paper's axes run to millions of users
//! on a five-server testbed; this harness scales each axis down by ~10⁴
//! (hundreds of users per point, one machine) while keeping the 5-point
//! sweeps, the 1:5 labeled:unlabeled ratio, and the method set intact.
//! Set `HYDRA_SCALE` (a float multiplier, default 1.0) to grow or shrink
//! every population size.

use hydra_datagen::DatasetConfig;
use hydra_eval::experiment::fast_signal_config;
use hydra_eval::{LabelPlan, SeriesTable, Setting};
use std::path::PathBuf;

/// Scale multiplier from the environment (default 1).
pub fn scale_factor() -> f64 {
    std::env::var("HYDRA_SCALE")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .filter(|v| *v > 0.0)
        .unwrap_or(1.0)
}

/// The five population sizes standing in for the paper's 1–5 million users.
pub fn user_sweep() -> Vec<usize> {
    let f = scale_factor();
    [100usize, 200, 300, 400, 500]
        .iter()
        .map(|&n| ((n as f64 * f).round() as usize).max(30))
        .collect()
}

/// Smaller sweep for the 7-platform (21-pair) and per-point-expensive runs.
pub fn small_sweep() -> Vec<usize> {
    let f = scale_factor();
    [60usize, 120, 180, 240, 300]
        .iter()
        .map(|&n| ((n as f64 * f).round() as usize).max(24))
        .collect()
}

/// Experiment setting for the English (Twitter+Facebook) dataset.
pub fn english_setting(num_persons: usize, seed: u64) -> Setting {
    let mut s = Setting::new(DatasetConfig::english(num_persons, seed));
    s.signal = fast_signal_config();
    s
}

/// Experiment setting for the Chinese five-platform dataset; expansion caps
/// keep the 10-task joint solve tractable.
pub fn chinese_setting(num_persons: usize, seed: u64) -> Setting {
    let mut s = Setting::new(DatasetConfig::chinese(num_persons, seed));
    s.signal = fast_signal_config();
    s.hydra.max_labeled_per_task = 100;
    s.hydra.max_unlabeled_expansion = 60;
    s.labels = LabelPlan {
        neg_per_pos: 1.0,
        ..LabelPlan::default()
    };
    s
}

/// Experiment setting for all seven platforms (Figure 13's cross-cultural
/// run, 21 platform pairs).
pub fn all7_setting(num_persons: usize, seed: u64) -> Setting {
    let mut s = Setting::new(DatasetConfig::all_seven(num_persons, seed));
    s.signal = fast_signal_config();
    s.hydra.max_labeled_per_task = 60;
    s.hydra.max_unlabeled_expansion = 30;
    s.labels = LabelPlan {
        neg_per_pos: 1.0,
        ..LabelPlan::default()
    };
    s
}

/// Output directory for series CSVs (`results/`, created on demand).
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("results");
    std::fs::create_dir_all(&dir).expect("create results dir");
    dir
}

/// Print a table and persist it as CSV under `results/<stem>.csv`.
pub fn emit(stem: &str, table: &SeriesTable) {
    println!("{table}");
    let path = out_dir().join(format!("{stem}.csv"));
    std::fs::write(&path, table.to_csv()).expect("write csv");
    println!("[saved {}]\n", path.display());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweeps_are_monotone() {
        let s = user_sweep();
        assert_eq!(s.len(), 5);
        assert!(s.windows(2).all(|w| w[0] < w[1]));
        let t = small_sweep();
        assert_eq!(t.len(), 5);
        assert!(t.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn settings_have_expected_platform_counts() {
        assert_eq!(english_setting(50, 1).dataset.platforms.len(), 2);
        assert_eq!(chinese_setting(50, 1).dataset.platforms.len(), 5);
        assert_eq!(all7_setting(50, 1).dataset.platforms.len(), 7);
    }

    #[test]
    fn scale_factor_defaults_to_one() {
        // The env var is not set under cargo test.
        if std::env::var("HYDRA_SCALE").is_err() {
            assert_eq!(scale_factor(), 1.0);
        }
    }
}
