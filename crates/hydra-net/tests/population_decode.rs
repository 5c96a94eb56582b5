//! The population (`HYPP`) and extractor (`HYSX`) loaders decode a body
//! while a second core hashes it, so the decoder runs on bytes nobody has
//! verified yet. These tests pin what that may change and what it may not:
//! a corrupt body still reports exactly the checksum error, at one worker
//! thread and at two, and a body flipped *and* re-stamped with a matching
//! checksum — bytes that pass the gate — decodes to a typed error or to a
//! value, never to a panic.

use hydra_core::artifact::{fnv1a, ModelIoError, TaskSpec};
use hydra_core::ingest::SignalExtractor;
use hydra_core::signals::{SignalConfig, Signals};
use hydra_graph::SocialGraph;
use hydra_net::PopulationArtifact;
use std::ops::Range;

/// `HYPP`: magic | version u16 | body checksum u64 | body.
const HYPP_CHECKSUM: Range<usize> = 6..14;
/// `HYSX` (standalone extractor): magic | version u16 | kind u8 |
/// payload checksum u64 | payload length u64 | payload.
const HYSX_CHECKSUM: Range<usize> = 7..15;
const HYSX_PAYLOAD_AT: usize = 23;

fn world() -> (Signals, SignalExtractor, Vec<SocialGraph>) {
    let dataset =
        hydra_datagen::Dataset::generate(hydra_datagen::DatasetConfig::english(6, 0xDEC0));
    let (signals, extractor) = Signals::extract_with_extractor(
        &dataset,
        &SignalConfig {
            lda_iterations: 2,
            infer_iterations: 1,
            ..Default::default()
        },
    );
    let graphs = dataset.platforms.iter().map(|p| p.graph.clone()).collect();
    (signals, extractor, graphs)
}

/// The full population and one shard's slice, encoded.
fn populations(signals: &Signals, graphs: &[SocialGraph]) -> [(&'static str, Vec<u8>); 2] {
    let full = PopulationArtifact::from_signals(signals, graphs, 0xC0FFEE);
    let task = [TaskSpec {
        left_platform: 0,
        right_platform: 1,
    }];
    let slice = full.slice_for_shard(1, 2, &task).expect("slice");
    [("full", full.to_bytes()), ("sliced", slice.to_bytes())]
}

#[test]
fn a_flipped_body_reports_the_checksum_mismatch_at_one_and_two_threads() {
    let (signals, _, graphs) = world();
    for (label, bytes) in populations(&signals, &graphs) {
        let body = HYPP_CHECKSUM.end;
        let stamped = u64::from_le_bytes(bytes[HYPP_CHECKSUM].try_into().unwrap());
        // A field that decodes either way (the extractor fingerprint), the
        // platform count (its high byte makes the decode itself fail), the
        // middle of the signals, and the last graph byte.
        for at in [body, body + 27, (body + bytes.len()) / 2, bytes.len() - 1] {
            let mut flipped = bytes.clone();
            flipped[at] ^= 0x40;
            let actual = fnv1a(&flipped[body..]);
            for threads in [1, 2] {
                hydra_par::set_thread_override(Some(threads));
                let got = PopulationArtifact::from_bytes(&flipped);
                hydra_par::set_thread_override(None);
                match got {
                    Err(ModelIoError::Corrupt {
                        offset,
                        section,
                        what,
                    }) => {
                        assert_eq!((offset, section), (6, "population header"), "{label} @{at}");
                        assert_eq!(
                            what,
                            format!(
                                "body checksum mismatch: header says {stamped:#018x}, \
                                 bytes hash to {actual:#018x}"
                            ),
                            "{label} @{at}, {threads} threads"
                        );
                    }
                    other => panic!("{label} @{at}, {threads} threads: {other:?}"),
                }
            }
        }
    }
}

/// Flip one byte at every `stride`-th offset of `body` (cycling through a
/// few masks), re-stamp the checksum at `checksum` so the bytes pass the
/// gate, and decode. Returns how many flips decoded and how many errored;
/// a panic fails the test with the offset that caused it.
fn restamped_flip_sweep(
    label: &str,
    bytes: &[u8],
    checksum: Range<usize>,
    body: Range<usize>,
    stride: usize,
    decode: fn(&[u8]) -> Result<(), ModelIoError>,
) -> (usize, usize) {
    let (mut ok, mut err) = (0, 0);
    for (i, at) in body.clone().step_by(stride).enumerate() {
        let mut flipped = bytes.to_vec();
        flipped[at] ^= [0x01, 0x10, 0x80, 0xFF][i % 4];
        let stamp = fnv1a(&flipped[body.clone()]).to_le_bytes();
        flipped[checksum.clone()].copy_from_slice(&stamp);
        match std::panic::catch_unwind(|| decode(&flipped)) {
            Ok(Ok(())) => ok += 1,
            Ok(Err(_)) => err += 1,
            Err(_) => panic!("{label}: decoding a re-stamped flip at byte {at} panicked"),
        }
    }
    (ok, err)
}

#[test]
fn restamped_flips_decode_to_a_typed_error_or_a_value_never_a_panic() {
    let (signals, extractor, graphs) = world();
    for (label, bytes) in populations(&signals, &graphs) {
        let body = HYPP_CHECKSUM.end..bytes.len();
        let stride = (body.len() / 1500).max(1);
        let (ok, err) = restamped_flip_sweep(label, &bytes, HYPP_CHECKSUM, body, stride, |b| {
            PopulationArtifact::from_bytes(b).map(drop)
        });
        assert!(err > 0, "{label}: no flip was refused ({ok} decoded)");
    }

    let bytes = extractor.to_bytes();
    let payload = HYSX_PAYLOAD_AT..bytes.len();
    let stride = (payload.len() / 1500).max(1);
    let (ok, err) = restamped_flip_sweep("HYSX", &bytes, HYSX_CHECKSUM, payload, stride, |b| {
        SignalExtractor::from_bytes(b).map(drop)
    });
    assert!(err > 0, "HYSX: no flip was refused ({ok} decoded)");
}
