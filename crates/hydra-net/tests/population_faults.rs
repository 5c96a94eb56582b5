//! Crash-safety sweep for the `HYPP` population artifact — the same
//! contract `HYLM`/`HYSX`/bundle saves are pinned to in hydra-core's
//! `artifact_faults.rs`: enumerate every fault-injection point a save
//! crosses, kill the save at each one (IO error + torn writes of every
//! interesting prefix length), and prove the previous artifact on disk
//! stays loadable, byte-identical to before the crashed save. The sweep
//! runs the *sliced* encoder as the overwriting save, so the v2 sparse
//! format's write path gets the same coverage as the full one. Decode
//! robustness rides along: every strict prefix of both full and sliced
//! wire bytes must fail with a typed [`ModelIoError`], never a panic.

use hydra_core::artifact::{ModelIoError, TaskSpec};
use hydra_core::signals::{SignalConfig, Signals};
use hydra_fault::{install, record, FaultKind, FaultPlan};
use hydra_graph::SocialGraph;
use hydra_net::PopulationArtifact;
use std::path::{Path, PathBuf};

/// A deliberately tiny corpus: the truncation sweep decodes thousands
/// of prefixes, and each decode re-hashes its body.
fn tiny_world(n: usize, seed: u64) -> (Signals, Vec<SocialGraph>) {
    let dataset = hydra_datagen::Dataset::generate(hydra_datagen::DatasetConfig::english(n, seed));
    let signals = Signals::extract(
        &dataset,
        &SignalConfig {
            lda_iterations: 2,
            infer_iterations: 1,
            ..Default::default()
        },
    );
    let graphs = dataset.platforms.iter().map(|p| p.graph.clone()).collect();
    (signals, graphs)
}

fn pair_task() -> Vec<TaskSpec> {
    vec![TaskSpec {
        left_platform: 0,
        right_platform: 1,
    }]
}

/// The temp sibling the atomic save stages bytes in (kept in sync with
/// `artifact::tmp_sibling` — the sweep asserts on its presence/cleanup).
fn tmp_sibling(path: &Path) -> PathBuf {
    let mut name = path.file_name().expect("file name").to_os_string();
    name.push(".tmp");
    path.with_file_name(name)
}

fn reload(path: &Path) -> Vec<u8> {
    PopulationArtifact::load(path).expect("load").to_bytes()
}

#[test]
fn crashed_saves_never_lose_the_previous_population() {
    let (signals, graphs) = tiny_world(8, 0x9072);
    let full = PopulationArtifact::from_signals(&signals, &graphs, 0xFEED);
    // The overwriting artifact is a slice: distinguishable bytes, and the
    // sparse encoder takes the hit at every fault site.
    let slice = full.slice_for_shard(1, 2, &pair_task()).expect("slice");
    let (v1, v2) = (full.to_bytes(), slice.to_bytes());
    assert_ne!(v1, v2, "sweep needs two distinguishable artifacts");

    let dir = std::env::temp_dir().join(format!("hypp-faults-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let path = dir.join("pop.hypp");
    full.save(&path).expect("seed v1");

    // Enumerate every injection point one save crosses, on a scratch
    // path so the artifact under test stays at v1 — and pin the surface
    // to the shared atomic-save sites every other artifact has.
    let scratch = path.with_extension("scratch");
    let (out, log) = record(|| slice.save(&scratch));
    out.expect("recorded save succeeds");
    let _ = std::fs::remove_file(&scratch);
    let sites: Vec<&str> = log.iter().map(|(s, _)| s.as_str()).collect();
    assert_eq!(
        sites,
        [
            "artifact.create",
            "artifact.write",
            "artifact.sync",
            "artifact.rename"
        ],
        "HYPP: unexpected save fault surface"
    );

    // Kill the save at every point with an IO error.
    for (site, hit) in &log {
        let scope = install(FaultPlan::new().one_shot(site, *hit, FaultKind::Io));
        let err = slice
            .save(&path)
            .expect_err("injected IO fault must surface");
        assert!(
            matches!(err, ModelIoError::Io(_)),
            "HYPP: fault at {site} surfaced as {err:?}"
        );
        drop(scope);
        assert_eq!(
            reload(&path),
            v1,
            "HYPP: fault at {site}#{hit} must leave the old artifact intact"
        );
        assert!(
            !tmp_sibling(&path).exists(),
            "HYPP: load after fault at {site} must sweep the stale temp"
        );
    }

    // Torn writes: the "crash" persists only a prefix of v2 in the temp
    // file. The target must stay v1 and the torn temp must be swept.
    for keep in [0, 1, v2.len() / 2, v2.len().saturating_sub(1)] {
        let scope =
            install(FaultPlan::new().one_shot("artifact.write", 0, FaultKind::TornWrite { keep }));
        slice.save(&path).expect_err("torn write must surface");
        drop(scope);
        let tmp = tmp_sibling(&path);
        let torn = std::fs::read(&tmp).expect("torn temp file exists");
        assert_eq!(
            torn,
            &v2[..keep.min(v2.len())],
            "HYPP: torn temp holds exactly the written prefix"
        );
        assert_eq!(reload(&path), v1, "HYPP: torn write (keep {keep})");
        assert!(!tmp.exists(), "HYPP: torn temp swept on load");
    }

    // An installed-but-empty plan changes nothing: the save completes
    // and the sliced artifact lands bit-exact.
    let scope = install(FaultPlan::new());
    slice.save(&path).expect("clean save under empty plan");
    drop(scope);
    assert_eq!(reload(&path), v2, "HYPP: clean save lands v2");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn every_prefix_truncation_is_a_typed_error_full_and_sliced() {
    let (signals, graphs) = tiny_world(6, 0x7212);
    let full = PopulationArtifact::from_signals(&signals, &graphs, 1);
    let slice = full.slice_for_shard(0, 2, &pair_task()).expect("slice");
    for (label, bytes) in [("full", full.to_bytes()), ("sliced", slice.to_bytes())] {
        // Byte-exact through the header and early body, where each cut
        // lands in a different decode path; strided through the bulk,
        // where every cut fails identically at the body-checksum gate
        // (the body decodes while it is hashed, but a checksum mismatch
        // is reported in place of any decode error, so a denser sweep
        // only repeats that outcome).
        let mut len = 0;
        while len < bytes.len() {
            // Must be an error (never a panic, never a huge speculative
            // allocation — length prefixes are validated against the
            // remaining byte count before any Vec is sized).
            let err = PopulationArtifact::from_bytes(&bytes[..len])
                .err()
                .unwrap_or_else(|| {
                    panic!(
                        "{label}: prefix of {len}/{} decoded successfully",
                        bytes.len()
                    )
                });
            let msg = err.to_string();
            assert!(!msg.is_empty(), "{label}: empty diagnostic at {len}");
            len += if len < 1024 { 1 } else { 101 };
        }
        // And the full buffer still decodes (the loop above didn't
        // assert on a stale copy).
        assert!(
            PopulationArtifact::from_bytes(&bytes).is_ok(),
            "{label}: full decode"
        );
    }
}

#[test]
fn corruption_in_every_section_is_typed() {
    let (signals, graphs) = tiny_world(6, 0x7213);
    let full = PopulationArtifact::from_signals(&signals, &graphs, 1);
    let slice = full.slice_for_shard(1, 2, &pair_task()).expect("slice");
    for (label, bytes) in [("full", full.to_bytes()), ("sliced", slice.to_bytes())] {
        // A flip anywhere in the body trips the checksum; a flip in the
        // header trips magic/version/checksum-mismatch. Stride through
        // the buffer so every region gets hit.
        for at in (0..bytes.len()).step_by(31) {
            let mut corrupt = bytes.clone();
            corrupt[at] ^= 0x40;
            match PopulationArtifact::from_bytes(&corrupt) {
                Err(
                    ModelIoError::BadMagic { .. }
                    | ModelIoError::UnsupportedVersion { .. }
                    | ModelIoError::Corrupt { .. }
                    | ModelIoError::Truncated { .. },
                ) => {}
                Err(other) => panic!("{label}: flip at {at} surfaced {other:?}"),
                Ok(_) => panic!("{label}: flip at {at} decoded successfully"),
            }
        }
    }
}
