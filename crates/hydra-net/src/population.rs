//! The `HYPP` population artifact: the extracted profile corpus + social
//! graphs a shard server cold-starts from.
//!
//! A [`ServingArtifact`](hydra_core::ingest::ServingArtifact) (`HYSA`)
//! freezes the *model* — decision weights and extraction state. It does
//! not carry the *population*: the per-account
//! [`UserSignals`](hydra_core::signals::UserSignals) and per-platform
//! [`SocialGraph`]s a [`ShardReplica`](hydra_core::shard::ShardReplica)
//! needs to rebuild its profile snapshot. This artifact fills that gap so
//! a shard process can be launched from two files and nothing else.
//!
//! ## Slicing
//!
//! The artifact is *partition-aware*: a `(shard,
//! num_shards)` topology header ((0, 0) = the full population) and a
//! sparse signal encoding let [`PopulationArtifact::slice_for_shard`]
//! write a per-shard artifact carrying only the profiles that shard's
//! replica can ever read — its owned accounts, every account on a
//! platform queries probe from the left, and the top-3 core friends
//! Eq. 18 missing-value filling reaches through — plus owned-incident
//! graph edges. The subtle part is blocking: candidate generation
//! consults *global* stop-gram statistics, so the slice carries the full
//! username column of every platform (strings are cheap; profiles are
//! not) and the replica rebuilds gram counts from those columns,
//! bitwise-identical to a full-population build. Absent slots decode as
//! [`UserSignals::empty`] placeholders that keep platform-local ids
//! dense; the [routing contract](hydra_core::routing) guarantees no
//! query ever scores through them.
//!
//! Layout (little-endian, checked-reader decoded like every other
//! artifact):
//!
//! ```text
//! magic "HYPP" | version u16 | body_fnv u64 | body
//! body = extractor_fingerprint u64 | window_days u32
//!      | shard u32 | num_shards u32                  (0, 0 = full)
//!      | num_platforms u64
//!      | { num_slots u64 | username...               (one per slot)
//!        | num_present u64 | { slot u32 | UserSignals }... }...
//!      | { graph }...            (one per platform, canonical edge list)
//! ```
//!
//! Only the current version decodes: no artifact outlives the build
//! that wrote it, so an older header is refused with the typed
//! [`ModelIoError::UnsupportedVersion`].
//!
//! The FNV-1a checksum over the body catches torn writes; graphs decode
//! by deterministic [`GraphBuilder`](hydra_graph::GraphBuilder) rebuild,
//! so a load round-trips the CSR bitwise. The embedded extractor
//! fingerprint lets the server refuse a population extracted by a
//! different pipeline than the model it loaded — the same gate the
//! in-process artifact swap enforces — and the topology header lets it
//! refuse a slice cut for different partition coordinates.

use crate::codec;
use crate::NetError;
use bytes::{BufMut, BytesMut};
use hydra_core::artifact::{
    decode_checksummed, fnv1a, load_bytes, put_str, read_str, write_atomic, ModelIoError, Reader,
    TaskSpec,
};
use hydra_core::routing;
use hydra_core::signals::{Signals, UserSignals};
use hydra_graph::{top_k_friends, GraphBuilder, SocialGraph};
use hydra_text::lda::LdaModel;
use std::collections::BTreeSet;

/// Artifact magic: "HYPP" (HYdra Population Pack).
pub const MAGIC: [u8; 4] = *b"HYPP";
/// The one format version this build writes and reads.
pub const VERSION: u16 = 2;
/// Byte offset of the body checksum in the header.
const CHECKSUM_AT: usize = 4 + 2;
/// Header length; the body starts here.
const HEADER_LEN: usize = CHECKSUM_AT + 8;

/// A serialized population: everything a shard server needs, beyond the
/// serving artifact, to stand up its partition — the full corpus
/// (topology `(0, 0)`) or one shard's slice of it.
#[derive(Debug, Clone)]
pub struct PopulationArtifact {
    /// Fingerprint of the [`SignalExtractor`](hydra_core::ingest::SignalExtractor)
    /// whose pipeline produced these signals.
    pub extractor_fingerprint: u64,
    /// Observation window length in days.
    pub window_days: u32,
    /// Partition coordinates this artifact was cut for; `(0, 0)` means
    /// the full population (loadable by any shard).
    pub shard: u32,
    /// See [`PopulationArtifact::shard`]; `0` means unsliced.
    pub num_shards: u32,
    /// `per_platform[p][a]` — extracted signals of account `a` on `p`.
    /// Always dense (one slot per account, so platform-local ids match
    /// the full population); slots a slice dropped hold
    /// [`UserSignals::empty`] placeholders.
    pub present: Vec<Vec<bool>>,
    /// `present[p][a]` — whether slot `a` carries real signals (`false`
    /// only in slices, for profiles the shard can never read).
    pub per_platform: Vec<Vec<UserSignals>>,
    /// `usernames[p][a]` — username of account `a` on `p`, for **every**
    /// slot including absent ones: the global blocking vocabulary a
    /// replica rebuilds its stop-gram statistics from.
    pub usernames: Vec<Vec<String>>,
    /// One social graph per platform (all node slots; a slice keeps only
    /// edges incident to an owned account on non-left platforms).
    pub graphs: Vec<SocialGraph>,
}

impl PopulationArtifact {
    /// Package an extracted corpus for shipping to shard servers (full
    /// population, topology `(0, 0)`).
    pub fn from_signals(
        signals: &Signals,
        graphs: &[SocialGraph],
        extractor_fingerprint: u64,
    ) -> Self {
        PopulationArtifact {
            extractor_fingerprint,
            window_days: signals.window_days,
            shard: 0,
            num_shards: 0,
            present: signals
                .per_platform
                .iter()
                .map(|side| vec![true; side.len()])
                .collect(),
            usernames: signals
                .per_platform
                .iter()
                .map(|side| side.iter().map(|sig| sig.username.clone()).collect())
                .collect(),
            per_platform: signals.per_platform.clone(),
            graphs: graphs.to_vec(),
        }
    }

    /// Whether this artifact is a per-shard slice (vs the full corpus).
    pub fn is_sliced(&self) -> bool {
        self.num_shards != 0
    }

    /// Cut shard `shard`'s slice of an `num_shards`-way partition: the
    /// minimal artifact from which
    /// [`ShardReplica::with_usernames`](hydra_core::shard::ShardReplica::with_usernames)
    /// rebuilds a replica bitwise-identical to one built from the full population.
    ///
    /// What each platform keeps is driven by what the serving path can
    /// read there (`tasks` are the model's platform pairs):
    ///
    /// * **Left platforms** — everything. Queries probe arbitrary left
    ///   accounts, and scoring reads the left profile plus its top-3
    ///   core friends.
    /// * **Other platforms** — profiles of owned accounts (the only
    ///   candidates this shard ever generates) and of their top-3 core
    ///   friends (Eq. 18 reads a friend's own profile, never a second
    ///   hop); graph edges incident to an owned account (a superset of
    ///   every owned account's full neighborhood, so top-3 rankings are
    ///   unchanged); placeholders elsewhere.
    /// * **Every platform** — the full username column, so global
    ///   stop-gram blocking statistics rebuild exactly.
    ///
    /// Serve-time inserts replicate signals to every shard (each replica
    /// publishes every epoch), so mutations stay bitwise too — with one
    /// documented contract: an account inserted *after* slicing may pull
    /// a pre-slicing account into its top-3, and that neighbor's profile
    /// is only guaranteed on shards that kept it. The mutation parity
    /// suites pin the supported shapes.
    ///
    /// Slicing a slice, `num_shards == 0`, or `shard >= num_shards` is
    /// refused with [`NetError::Protocol`].
    pub fn slice_for_shard(
        &self,
        shard: usize,
        num_shards: usize,
        tasks: &[TaskSpec],
    ) -> Result<Self, NetError> {
        if self.is_sliced() {
            return Err(NetError::Protocol(format!(
                "cannot slice an already-sliced population (topology {}/{})",
                self.shard, self.num_shards
            )));
        }
        if num_shards == 0 || shard >= num_shards {
            return Err(NetError::Protocol(format!(
                "invalid slice coordinates: shard {shard} of {num_shards}"
            )));
        }
        let left_platforms: BTreeSet<usize> =
            tasks.iter().map(|t| t.left_platform as usize).collect();
        let mut per_platform = Vec::with_capacity(self.per_platform.len());
        let mut present = Vec::with_capacity(self.per_platform.len());
        let mut graphs = Vec::with_capacity(self.per_platform.len());
        for (p, side) in self.per_platform.iter().enumerate() {
            let graph = &self.graphs[p];
            if left_platforms.contains(&p) {
                per_platform.push(side.clone());
                present.push(vec![true; side.len()]);
                graphs.push(graph.clone());
                continue;
            }
            let mut keep = vec![false; side.len()];
            for a in 0..side.len() as u32 {
                if routing::owns(shard, num_shards, a) {
                    keep[a as usize] = true;
                    for f in top_k_friends(graph, a, 3) {
                        keep[f as usize] = true;
                    }
                }
            }
            per_platform.push(
                side.iter()
                    .zip(&keep)
                    .map(|(sig, &k)| if k { sig.clone() } else { UserSignals::empty() })
                    .collect(),
            );
            present.push(keep);
            let mut builder = GraphBuilder::new(side.len());
            for (a, b, w) in graph.edges() {
                if routing::owns(shard, num_shards, a) || routing::owns(shard, num_shards, b) {
                    builder.add_edge(a, b, w);
                }
            }
            graphs.push(builder.build());
        }
        Ok(PopulationArtifact {
            extractor_fingerprint: self.extractor_fingerprint,
            window_days: self.window_days,
            shard: shard as u32,
            num_shards: num_shards as u32,
            present,
            per_platform,
            usernames: self.usernames.clone(),
            graphs,
        })
    }

    /// Reassemble the [`Signals`] a replica builds from, supplying the
    /// topic model from the serving artifact's extractor (the snapshot
    /// build never consults it, but the struct carries one). Callers
    /// standing up a replica from a *slice* must take the
    /// [`usernames`](PopulationArtifact::usernames) columns first and
    /// build via `ShardReplica::with_usernames`, or global blocking
    /// statistics would count placeholder (empty) usernames.
    pub fn into_signals(self, lda: LdaModel) -> (Signals, Vec<SocialGraph>) {
        (
            Signals {
                per_platform: self.per_platform,
                window_days: self.window_days,
                lda,
            },
            self.graphs,
        )
    }

    /// Serialize (header + checksummed body). Absent slots are not
    /// written — their in-memory placeholders are reconstructed on
    /// decode, which is what makes a 4-way slice ~1/4 the bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        // The body is encoded straight after the header, into one buffer,
        // and its checksum written into the slot reserved for it.
        let mut w = BytesMut::with_capacity(64);
        w.put_slice(&MAGIC);
        w.put_u16_le(VERSION);
        w.put_u64_le(0);
        w.put_u64_le(self.extractor_fingerprint);
        w.put_u32_le(self.window_days);
        w.put_u32_le(self.shard);
        w.put_u32_le(self.num_shards);
        w.put_u64_le(self.per_platform.len() as u64);
        for (p, side) in self.per_platform.iter().enumerate() {
            w.put_u64_le(side.len() as u64);
            for username in &self.usernames[p] {
                put_str(&mut w, username);
            }
            let present: Vec<u32> = (0..side.len() as u32)
                .filter(|&a| self.present[p][a as usize])
                .collect();
            w.put_u64_le(present.len() as u64);
            for a in present {
                w.put_u32_le(a);
                codec::put_signals(&mut w, &side[a as usize]);
            }
        }
        for graph in &self.graphs {
            codec::put_graph(&mut w, graph);
        }
        let checksum = fnv1a(&w[HEADER_LEN..]);
        w[CHECKSUM_AT..HEADER_LEN].copy_from_slice(&checksum.to_le_bytes());
        w.into()
    }

    /// Decode, verifying magic, version, and body checksum. Every
    /// malformed input — any truncation prefix included — surfaces a
    /// typed [`ModelIoError`], never a panic. The body is hashed on a
    /// second core while it decodes; a checksum mismatch is reported in
    /// place of any decode error.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, ModelIoError> {
        let mut r = Reader::new(bytes);
        r.set_section("population header");
        let magic = r.bytes(4)?;
        if magic != MAGIC {
            let mut found = [0u8; 4];
            found.copy_from_slice(magic);
            return Err(ModelIoError::BadMagic {
                expected: MAGIC,
                found,
            });
        }
        let version = r.u16()?;
        if version != VERSION {
            return Err(ModelIoError::UnsupportedVersion {
                found: version,
                max: VERSION,
            });
        }
        let checksum = r.u64()?;
        let body = r.bytes(r.remaining())?;
        decode_checksummed(
            body,
            checksum,
            || Self::decode_body(body),
            |actual| {
                ModelIoError::Corrupt {
                offset: CHECKSUM_AT,
                section: "population header",
                what: format!(
                    "body checksum mismatch: header says {checksum:#018x}, bytes hash to {actual:#018x}"
                ),
            }
            },
        )
    }

    /// Decode the body (offsets in errors are relative to its start).
    fn decode_body(body: &[u8]) -> Result<Self, ModelIoError> {
        let mut r = Reader::new(body);
        r.set_section("population body");
        let extractor_fingerprint = r.u64()?;
        let window_days = r.u32()?;
        let (shard, num_shards) = (r.u32()?, r.u32()?);
        if num_shards == 0 && shard != 0 {
            return Err(r.corrupt(format!("shard {shard} of an unsliced (0-shard) population")));
        }
        if num_shards != 0 && shard >= num_shards {
            return Err(r.corrupt(format!(
                "shard {shard} out of range for {num_shards} shards"
            )));
        }
        let num_platforms = r.len_prefix(8)?;
        let mut per_platform = Vec::with_capacity(num_platforms);
        let mut present = Vec::with_capacity(num_platforms);
        let mut usernames = Vec::with_capacity(num_platforms);
        r.set_section("population signals");
        for p in 0..num_platforms {
            // One `put_str` username per slot: an 8-byte prefix at least.
            let num_slots = r.len_prefix(8)?;
            let column = (0..num_slots)
                .map(|_| read_str(&mut r))
                .collect::<Result<Vec<_>, _>>()?;
            let num_present = r.len_prefix(5)?;
            if num_present > num_slots {
                return Err(r.corrupt(format!(
                    "platform {p}: {num_present} present signals in {num_slots} slots"
                )));
            }
            if num_shards == 0 && num_present != num_slots {
                return Err(r.corrupt(format!(
                    "platform {p}: unsliced population with only {num_present} of {num_slots} signals"
                )));
            }
            let mut side = vec![UserSignals::empty(); num_slots];
            let mut mask = vec![false; num_slots];
            let mut prev: Option<u32> = None;
            for _ in 0..num_present {
                let slot = r.u32()?;
                if (slot as usize) >= num_slots {
                    return Err(
                        r.corrupt(format!("platform {p}: present slot {slot} out of range"))
                    );
                }
                if prev.is_some_and(|q| slot <= q) {
                    return Err(r.corrupt(format!(
                        "platform {p}: present slots out of order at {slot}"
                    )));
                }
                prev = Some(slot);
                let sig = codec::read_signals(&mut r)?;
                if sig.username != column[slot as usize] {
                    return Err(r.corrupt(format!(
                        "platform {p} slot {slot}: signal username disagrees with column"
                    )));
                }
                side[slot as usize] = sig;
                mask[slot as usize] = true;
            }
            per_platform.push(side);
            present.push(mask);
            usernames.push(column);
        }
        r.set_section("population graphs");
        let graphs = per_platform
            .iter()
            .map(|side| codec::read_graph(&mut r, side.len()))
            .collect::<Result<Vec<_>, _>>()?;
        if r.remaining() != 0 {
            return Err(r.corrupt(format!(
                "{} trailing bytes after population body",
                r.remaining()
            )));
        }
        Ok(PopulationArtifact {
            extractor_fingerprint,
            window_days,
            shard,
            num_shards,
            present,
            per_platform,
            usernames,
            graphs,
        })
    }

    /// Save atomically (temp sibling + fsync + rename — crash-safe like
    /// every other artifact; shares the `artifact.*` fault sites).
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> Result<(), ModelIoError> {
        write_atomic(path.as_ref(), &self.to_bytes())
    }

    /// Load from a file (clearing any stale `.tmp` a crashed save left).
    pub fn load(path: impl AsRef<std::path::Path>) -> Result<Self, ModelIoError> {
        Self::from_bytes(&load_bytes(path.as_ref())?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hydra_core::signals::SignalConfig;
    use hydra_datagen::{Dataset, DatasetConfig};

    fn small_world() -> (Signals, Vec<SocialGraph>) {
        let dataset = Dataset::generate(DatasetConfig::english(12, 0x5A4D));
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

    #[test]
    fn slot_count_is_bounded_by_the_smallest_username() {
        // One platform claiming a slot per filler byte: enough for a
        // per-byte bound, an eighth of what that many usernames need.
        let claimed = 4096usize;
        let mut body = Vec::new();
        body.extend(0xC0FFEEu64.to_le_bytes());
        body.extend(64u32.to_le_bytes());
        body.extend([0u8; 8]); // shard 0 of an unsliced population
        body.extend(1u64.to_le_bytes());
        body.extend((claimed as u64).to_le_bytes());
        body.resize(body.len() + claimed, 0);
        let mut bytes = MAGIC.to_vec();
        bytes.extend(VERSION.to_le_bytes());
        bytes.extend(fnv1a(&body).to_le_bytes());
        bytes.extend(body);
        match PopulationArtifact::from_bytes(&bytes) {
            Err(ModelIoError::Truncated { needed, .. }) => assert_eq!(needed, claimed * 8),
            other => panic!("expected the count itself to be refused, got {other:?}"),
        }
    }

    #[test]
    fn round_trips_bitwise() {
        let (signals, graphs) = small_world();
        let art = PopulationArtifact::from_signals(&signals, &graphs, 0xC0FFEE);
        let bytes = art.to_bytes();
        let back = PopulationArtifact::from_bytes(&bytes).unwrap();
        assert_eq!(back.extractor_fingerprint, 0xC0FFEE);
        assert_eq!(back.window_days, signals.window_days);
        assert_eq!((back.shard, back.num_shards), (0, 0));
        assert_eq!(back.per_platform.len(), signals.per_platform.len());
        // Canonical: re-encoding the decode yields identical bytes, which
        // pins every field (floats included) bit-for-bit.
        assert_eq!(back.to_bytes(), bytes);
        // Any other version — an older header included — is refused.
        let mut old = bytes;
        old[4..6].copy_from_slice(&1u16.to_le_bytes());
        assert!(matches!(
            PopulationArtifact::from_bytes(&old),
            Err(ModelIoError::UnsupportedVersion { found: 1, max: 2 })
        ));
    }

    #[test]
    fn sliced_round_trips_bitwise_and_shrinks() {
        let (signals, graphs) = small_world();
        let art = PopulationArtifact::from_signals(&signals, &graphs, 0xC0FFEE);
        let full = art.to_bytes();
        for num_shards in [1usize, 2, 4] {
            for shard in 0..num_shards {
                let slice = art
                    .slice_for_shard(shard, num_shards, &pair_task())
                    .unwrap();
                assert_eq!(
                    (slice.shard, slice.num_shards),
                    (shard as u32, num_shards as u32)
                );
                let bytes = slice.to_bytes();
                let back = PopulationArtifact::from_bytes(&bytes).unwrap();
                assert_eq!(back.to_bytes(), bytes);
                // Slots stay dense — only the payload thins.
                for (p, side) in back.per_platform.iter().enumerate() {
                    assert_eq!(side.len(), signals.per_platform[p].len());
                    assert_eq!(back.usernames[p].len(), side.len());
                    assert_eq!(back.graphs[p].num_nodes(), side.len());
                }
                // Platform 0 is the left side of the only task: full.
                assert!(back.present[0].iter().all(|&b| b));
                if num_shards > 1 {
                    assert!(
                        back.present[1].iter().any(|&b| !b),
                        "{shard}/{num_shards}: slice dropped nothing"
                    );
                    assert!(bytes.len() < full.len());
                }
                // Every owned account (and its top-3 friends) is present.
                for a in 0..back.present[1].len() as u32 {
                    if routing::owns(shard, num_shards, a) {
                        assert!(back.present[1][a as usize]);
                        for f in top_k_friends(&art.graphs[1], a, 3) {
                            assert!(back.present[1][f as usize], "friend {f} of {a} missing");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn slice_refuses_bad_coordinates() {
        let (signals, graphs) = small_world();
        let art = PopulationArtifact::from_signals(&signals, &graphs, 1);
        assert!(matches!(
            art.slice_for_shard(0, 0, &pair_task()),
            Err(NetError::Protocol(_))
        ));
        assert!(matches!(
            art.slice_for_shard(2, 2, &pair_task()),
            Err(NetError::Protocol(_))
        ));
        let slice = art.slice_for_shard(0, 2, &pair_task()).unwrap();
        assert!(matches!(
            slice.slice_for_shard(0, 2, &pair_task()),
            Err(NetError::Protocol(_))
        ));
    }

    #[test]
    fn every_truncation_prefix_is_typed() {
        let (signals, graphs) = small_world();
        let art = PopulationArtifact::from_signals(&signals, &graphs, 1);
        for bytes in [
            art.to_bytes(),
            art.slice_for_shard(1, 2, &pair_task()).unwrap().to_bytes(),
        ] {
            // Step through prefixes (byte-exact near the front where each
            // cut lands in a different field, strided through the bulk).
            let mut cut = 0;
            while cut < bytes.len() {
                let err = PopulationArtifact::from_bytes(&bytes[..cut]).unwrap_err();
                assert!(
                    matches!(
                        err,
                        ModelIoError::Truncated { .. }
                            | ModelIoError::BadMagic { .. }
                            | ModelIoError::Corrupt { .. }
                    ),
                    "cut {cut}: {err}"
                );
                cut += if cut < 64 { 1 } else { 101 };
            }
        }
    }

    #[test]
    fn checksum_catches_bit_flips() {
        let (signals, graphs) = small_world();
        let mut bytes = PopulationArtifact::from_signals(&signals, &graphs, 1).to_bytes();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        let err = PopulationArtifact::from_bytes(&bytes).unwrap_err();
        assert!(
            matches!(err, ModelIoError::Corrupt { ref what, .. } if what.contains("checksum")),
            "{err}"
        );
    }

    #[test]
    fn save_load_round_trips() {
        let (signals, graphs) = small_world();
        let art = PopulationArtifact::from_signals(&signals, &graphs, 7);
        let dir = std::env::temp_dir().join(format!("hypp-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("pop.hypp");
        art.save(&path).unwrap();
        let back = PopulationArtifact::load(&path).unwrap();
        assert_eq!(back.to_bytes(), art.to_bytes());
        std::fs::remove_dir_all(&dir).ok();
    }
}
