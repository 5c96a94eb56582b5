//! Value-level codecs shared by the message layer and the population
//! artifact: profiles ([`UserSignals`]), social-graph snapshots, scored
//! candidates, and serving-layer errors — all little-endian, length
//! prefixed, with `f64`s carried as IEEE-754 bit patterns so every value
//! round-trips bit-exactly (the parity suite depends on it).

use bytes::{BufMut, BytesMut};
use hydra_core::artifact::{put_f64_vec, put_str, read_str, ModelIoError, Reader};
use hydra_core::engine::EngineError;
use hydra_core::shard::ScoredCandidate;
use hydra_core::signals::{DaySeries, UserSignals};
use hydra_core::CandidatePair;
use hydra_datagen::attributes::{AttrValues, NUM_ATTRS};
use hydra_graph::{GraphBuilder, SocialGraph};
use hydra_temporal::{GeoPoint, MediaItem, Timeline};
use hydra_text::style::UniqueWordProfile;
use hydra_vision::{FaceEmbedding, ImageContent, ProfileImage};

// ---------------------------------------------------------------------------
// primitives

pub(crate) fn put_bool(w: &mut BytesMut, b: bool) {
    w.put_slice(&[b as u8]);
}

pub(crate) fn read_bool(r: &mut Reader) -> Result<bool, ModelIoError> {
    match r.u8()? {
        0 => Ok(false),
        1 => Ok(true),
        t => Err(r.corrupt(format!("invalid bool tag {t} (expected 0 or 1)"))),
    }
}

pub(crate) fn put_u32_vec(w: &mut BytesMut, v: &[u32]) {
    w.put_u64_le(v.len() as u64);
    for &x in v {
        w.put_u32_le(x);
    }
}

pub(crate) fn read_u32_vec(r: &mut Reader) -> Result<Vec<u32>, ModelIoError> {
    let n = r.len_prefix(4)?;
    Ok(le_values(r.bytes(n * 4)?).map(u32::from_le_bytes).collect())
}

/// The `N`-byte little-endian values packed back to back in `raw` (whole
/// values only: callers take `raw` from one bounds-checked read).
fn le_values<const N: usize>(raw: &[u8]) -> impl Iterator<Item = [u8; N]> + '_ {
    raw.chunks_exact(N).map(|c| {
        let mut value = [0u8; N];
        value.copy_from_slice(c);
        value
    })
}

// ---------------------------------------------------------------------------
// profiles

fn put_day_series(w: &mut BytesMut, s: &DaySeries) {
    w.put_u64_le(s.days.len() as u64);
    for &d in &s.days {
        w.put_u16_le(d);
    }
    w.put_u64_le(s.dists.iter().len() as u64);
    for dist in s.dists.iter() {
        put_f64_vec(w, dist);
    }
}

/// Decode a [`put_day_series`] series into flat storage. Bucketing reads
/// day `k` beside distribution `k` and merges neighbouring days, so a
/// series whose counts differ, whose distributions differ in width or
/// whose days do not strictly ascend is refused here rather than silently
/// truncated or merged into the wrong bucket later.
fn read_day_series(r: &mut Reader) -> Result<DaySeries, ModelIoError> {
    let nd = r.len_prefix(2)?;
    let days: Vec<u16> = le_values(r.bytes(nd * 2)?)
        .map(u16::from_le_bytes)
        .collect();
    if let Some(k) = days.windows(2).position(|w| w[0] >= w[1]) {
        return Err(r.corrupt(format!(
            "day series: day {} at position {} does not follow day {} (days must strictly ascend)",
            days[k + 1],
            k + 1,
            days[k]
        )));
    }
    let nv = r.len_prefix(8)?;
    if nv != nd {
        return Err(r.corrupt(format!("day series: {nv} distributions for {nd} days")));
    }
    let mut dim = 0;
    let mut flat = Vec::new();
    for k in 0..nv {
        let width = r.len_prefix(8)?;
        if k == 0 {
            dim = width;
            flat.reserve_exact(nv.saturating_mul(dim).min(r.remaining() / 8));
        } else if width != dim {
            return Err(r.corrupt(format!(
                "day series: distribution {k} has {width} values, distribution 0 has {dim}"
            )));
        }
        flat.extend(le_values(r.bytes(width * 8)?).map(f64::from_le_bytes));
    }
    Ok(DaySeries::from_flat(days, dim, flat))
}

fn put_attrs(w: &mut BytesMut, attrs: &AttrValues) {
    for a in attrs.iter() {
        match a {
            Some(v) => {
                w.put_slice(&[1]);
                w.put_u64_le(*v);
            }
            None => {
                w.put_slice(&[0]);
                w.put_u64_le(0);
            }
        }
    }
}

fn read_attrs(r: &mut Reader) -> Result<AttrValues, ModelIoError> {
    let mut attrs: AttrValues = [None; NUM_ATTRS];
    for slot in attrs.iter_mut() {
        let tag = r.u8()?;
        let v = r.u64()?;
        *slot = match tag {
            0 => None,
            1 => Some(v),
            t => return Err(r.corrupt(format!("invalid attr tag {t} (expected 0 or 1)"))),
        };
    }
    Ok(attrs)
}

fn put_image(w: &mut BytesMut, image: &Option<ProfileImage>) {
    match image {
        None => w.put_slice(&[0]),
        Some(img) => match &img.content {
            ImageContent::NoFace => w.put_slice(&[1]),
            ImageContent::Face { embedding, quality } => {
                w.put_slice(&[2]);
                put_f64_vec(w, &embedding.0);
                w.put_f64_le(*quality);
            }
        },
    }
}

fn read_image(r: &mut Reader) -> Result<Option<ProfileImage>, ModelIoError> {
    match r.u8()? {
        0 => Ok(None),
        1 => Ok(Some(ProfileImage {
            content: ImageContent::NoFace,
        })),
        2 => {
            let embedding = FaceEmbedding(r.f64_vec()?);
            let quality = r.f64()?;
            Ok(Some(ProfileImage {
                content: ImageContent::Face { embedding, quality },
            }))
        }
        t => Err(r.corrupt(format!("invalid image tag {t} (expected 0..=2)"))),
    }
}

fn put_checkins(w: &mut BytesMut, t: &Timeline<GeoPoint>) {
    let events = t.as_slice();
    w.put_u64_le(events.len() as u64);
    for (ts, p) in events {
        w.put_u64_le(*ts as u64);
        w.put_f64_le(p.lat);
        w.put_f64_le(p.lon);
    }
}

fn read_checkins(r: &mut Reader) -> Result<Timeline<GeoPoint>, ModelIoError> {
    let n = r.len_prefix(24)?;
    let mut events = Vec::with_capacity(n);
    for _ in 0..n {
        let ts = r.u64()? as i64;
        let lat = r.f64()?;
        let lon = r.f64()?;
        events.push((ts, GeoPoint { lat, lon }));
    }
    // Events were serialized from `as_slice` (already in timeline order)
    // and `from_events` sorts stably — the round trip is bitwise.
    Ok(Timeline::from_events(events))
}

fn put_media(w: &mut BytesMut, t: &Timeline<MediaItem>) {
    let events = t.as_slice();
    w.put_u64_le(events.len() as u64);
    for (ts, m) in events {
        w.put_u64_le(*ts as u64);
        w.put_u64_le(m.fingerprint);
    }
}

fn read_media(r: &mut Reader) -> Result<Timeline<MediaItem>, ModelIoError> {
    let n = r.len_prefix(16)?;
    let mut events = Vec::with_capacity(n);
    for _ in 0..n {
        let ts = r.u64()? as i64;
        let fingerprint = r.u64()?;
        events.push((ts, MediaItem { fingerprint }));
    }
    Ok(Timeline::from_events(events))
}

/// The fewest bytes [`put_signals`] can write (a blank account): person,
/// username prefix, tagged attr slots, image tag, three day-series of two
/// prefixes each, then the style, embedding, check-in and media prefixes.
/// A count of encoded accounts is bounded by this, not by one byte each.
pub(crate) const MIN_SIGNALS_BYTES: usize = 4 + 8 + 9 * NUM_ATTRS + 1 + 3 * 16 + 4 * 8;

/// Encode one account's full extracted profile.
pub fn put_signals(w: &mut BytesMut, sig: &UserSignals) {
    w.put_u32_le(sig.person);
    put_str(w, &sig.username);
    put_attrs(w, &sig.attrs);
    put_image(w, &sig.image);
    put_day_series(w, &sig.topic_days);
    put_day_series(w, &sig.genre_days);
    put_day_series(w, &sig.senti_days);
    w.put_u64_le(sig.style.words.len() as u64);
    for word in &sig.style.words {
        put_str(w, word);
    }
    put_f64_vec(w, &sig.embedding);
    put_checkins(w, &sig.checkins);
    put_media(w, &sig.media);
}

/// Decode one account's profile — bit-exact inverse of [`put_signals`].
pub fn read_signals(r: &mut Reader) -> Result<UserSignals, ModelIoError> {
    let person = r.u32()?;
    let username = read_str(r)?;
    let attrs = read_attrs(r)?;
    let image = read_image(r)?;
    let topic_days = read_day_series(r)?;
    let genre_days = read_day_series(r)?;
    let senti_days = read_day_series(r)?;
    let nw = r.len_prefix(8)?;
    let words = (0..nw)
        .map(|_| read_str(r))
        .collect::<Result<Vec<_>, _>>()?;
    let embedding = r.f64_vec()?;
    let checkins = read_checkins(r)?;
    let media = read_media(r)?;
    Ok(UserSignals {
        person,
        username,
        attrs,
        image,
        topic_days,
        genre_days,
        senti_days,
        style: UniqueWordProfile { words },
        embedding,
        checkins,
        media,
    })
}

// ---------------------------------------------------------------------------
// graphs

/// Encode a social-graph snapshot as its canonical edge list (`edges()`
/// yields each undirected edge once, `(a, b, w)` with `a < b`, ascending
/// — a canonical form, so encode(decode(x)) == encode(x)).
pub fn put_graph(w: &mut BytesMut, g: &SocialGraph) {
    w.put_u64_le(g.num_nodes() as u64);
    let edges: Vec<(u32, u32, f64)> = g.edges().collect();
    w.put_u64_le(edges.len() as u64);
    for (a, b, weight) in edges {
        w.put_u32_le(a);
        w.put_u32_le(b);
        w.put_f64_le(weight);
    }
}

/// Decode a graph by deterministic rebuild through [`GraphBuilder`] —
/// bitwise the CSR the original held (builder construction is canonical).
/// A graph whose node count is not `slots`, the account slots it belongs
/// to, is refused before the CSR (one offset per node) is allocated.
pub fn read_graph(r: &mut Reader, slots: usize) -> Result<SocialGraph, ModelIoError> {
    let num_nodes = r.usize()?;
    if num_nodes > u32::MAX as usize {
        return Err(r.corrupt(format!("graph node count {num_nodes} overflows u32")));
    }
    let ne = r.len_prefix(16)?;
    let mut builder = GraphBuilder::new(num_nodes);
    for _ in 0..ne {
        let a = r.u32()?;
        let b = r.u32()?;
        let weight = r.f64()?;
        if a as usize >= num_nodes || b as usize >= num_nodes {
            return Err(r.corrupt(format!(
                "graph edge ({a}, {b}) references a node outside 0..{num_nodes}"
            )));
        }
        if !(weight > 0.0) {
            return Err(r.corrupt(format!(
                "graph edge ({a}, {b}) has weight {weight}; interaction weights are positive"
            )));
        }
        builder.add_edge(a, b, weight);
    }
    if num_nodes != slots {
        return Err(r.corrupt(format!(
            "graph has {num_nodes} nodes but {slots} account slots"
        )));
    }
    Ok(builder.build())
}

// ---------------------------------------------------------------------------
// candidates + errors

/// Encode one scored candidate contribution (merge keys + kernel
/// decision; `f64`s as bit patterns).
pub fn put_scored(w: &mut BytesMut, sc: &ScoredCandidate) {
    w.put_u32_le(sc.cand.left);
    w.put_u32_le(sc.cand.right);
    w.put_f64_le(sc.cand.username_sim);
    put_bool(w, sc.cand.pre_matched);
    w.put_f64_le(sc.score);
    put_bool(w, sc.linked);
}

/// Decode one scored candidate.
pub fn read_scored(r: &mut Reader) -> Result<ScoredCandidate, ModelIoError> {
    let left = r.u32()?;
    let right = r.u32()?;
    let username_sim = r.f64()?;
    let pre_matched = read_bool(r)?;
    let score = r.f64()?;
    let linked = read_bool(r)?;
    Ok(ScoredCandidate {
        cand: CandidatePair {
            left,
            right,
            username_sim,
            pre_matched,
        },
        score,
        linked,
    })
}

/// Serving-layer errors a shard relays over the wire — every
/// [`EngineError`] variant, tagged.
pub fn put_engine_error(w: &mut BytesMut, e: &EngineError) {
    match e {
        EngineError::TaskOutOfRange { task, num_tasks } => {
            w.put_slice(&[0]);
            w.put_u64_le(*task as u64);
            w.put_u64_le(*num_tasks as u64);
        }
        EngineError::PlatformOutOfRange {
            platform,
            num_platforms,
        } => {
            w.put_slice(&[1]);
            w.put_u64_le(*platform as u64);
            w.put_u64_le(*num_platforms as u64);
        }
        EngineError::AccountOutOfRange { platform, account } => {
            w.put_slice(&[2]);
            w.put_u64_le(*platform as u64);
            w.put_u32_le(*account);
        }
        EngineError::AccountRemoved { platform, account } => {
            w.put_slice(&[3]);
            w.put_u64_le(*platform as u64);
            w.put_u32_le(*account);
        }
        EngineError::WindowMismatch { model, signals } => {
            w.put_slice(&[4]);
            w.put_u32_le(*model);
            w.put_u32_le(*signals);
        }
        EngineError::MissingPlatform {
            platform,
            num_platforms,
        } => {
            w.put_slice(&[5]);
            w.put_u32_le(*platform);
            w.put_u64_le(*num_platforms as u64);
        }
        EngineError::PlatformCountMismatch { signals, graphs } => {
            w.put_slice(&[6]);
            w.put_u64_le(*signals as u64);
            w.put_u64_le(*graphs as u64);
        }
        EngineError::EdgeNeighborOutOfRange { platform, neighbor } => {
            w.put_slice(&[7]);
            w.put_u64_le(*platform as u64);
            w.put_u32_le(*neighbor);
        }
        EngineError::EdgeWeightNotPositive { platform, neighbor } => {
            w.put_slice(&[8]);
            w.put_u64_le(*platform as u64);
            w.put_u32_le(*neighbor);
        }
        EngineError::InvalidShardCount => w.put_slice(&[9]),
        EngineError::Transient { site } => {
            w.put_slice(&[10]);
            put_str(w, site);
        }
        EngineError::ArtifactFingerprintMismatch { expected, found } => {
            w.put_slice(&[11]);
            w.put_u64_le(*expected);
            w.put_u64_le(*found);
        }
    }
}

/// Intern a transient-fault site name decoded off the wire.
/// `EngineError::Transient` carries a `&'static str`; the known injection
/// sites map back to their static names, anything else becomes the
/// generic `"remote.transient"` (no leaking, deterministic).
fn intern_site(site: &str) -> &'static str {
    const KNOWN: &[&str] = &[
        "replica.insert",
        "replica.insert_batch",
        "sharded.insert",
        "sharded.insert_batch",
        "snapshot.publish",
        "snapshot.publish_batch",
        "swap.begin",
        "swap.shard",
    ];
    KNOWN
        .iter()
        .find(|&&k| k == site)
        .copied()
        .unwrap_or("remote.transient")
}

/// Decode a relayed serving-layer error.
pub fn read_engine_error(r: &mut Reader) -> Result<EngineError, ModelIoError> {
    let tag = r.u8()?;
    Ok(match tag {
        0 => EngineError::TaskOutOfRange {
            task: r.usize()?,
            num_tasks: r.usize()?,
        },
        1 => EngineError::PlatformOutOfRange {
            platform: r.usize()?,
            num_platforms: r.usize()?,
        },
        2 => EngineError::AccountOutOfRange {
            platform: r.usize()?,
            account: r.u32()?,
        },
        3 => EngineError::AccountRemoved {
            platform: r.usize()?,
            account: r.u32()?,
        },
        4 => EngineError::WindowMismatch {
            model: r.u32()?,
            signals: r.u32()?,
        },
        5 => EngineError::MissingPlatform {
            platform: r.u32()?,
            num_platforms: r.usize()?,
        },
        6 => EngineError::PlatformCountMismatch {
            signals: r.usize()?,
            graphs: r.usize()?,
        },
        7 => EngineError::EdgeNeighborOutOfRange {
            platform: r.usize()?,
            neighbor: r.u32()?,
        },
        8 => EngineError::EdgeWeightNotPositive {
            platform: r.usize()?,
            neighbor: r.u32()?,
        },
        9 => EngineError::InvalidShardCount,
        10 => EngineError::Transient {
            site: intern_site(&read_str(r)?),
        },
        11 => EngineError::ArtifactFingerprintMismatch {
            expected: r.u64()?,
            found: r.u64()?,
        },
        t => return Err(r.corrupt(format!("unknown engine error tag {t} (expected 0..=11)"))),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_signals(sig: &UserSignals) -> UserSignals {
        let mut w = BytesMut::with_capacity(64);
        put_signals(&mut w, sig);
        let bytes = w.freeze().to_vec();
        let mut r = Reader::new(&bytes);
        let back = read_signals(&mut r).unwrap();
        assert_eq!(r.remaining(), 0, "codec consumed everything");
        back
    }

    #[test]
    fn min_signals_bytes_is_the_blank_account_encoding() {
        let mut w = BytesMut::with_capacity(64);
        put_signals(&mut w, &UserSignals::empty());
        assert_eq!(w.freeze().len(), MIN_SIGNALS_BYTES);
    }

    #[test]
    fn signals_round_trip_bitwise() {
        let mut sig = UserSignals::empty();
        sig.person = 42;
        sig.username = "nemo_finder".into();
        sig.attrs[0] = Some(7);
        sig.attrs[3] = Some(u64::MAX);
        sig.image = Some(ProfileImage {
            content: ImageContent::Face {
                embedding: FaceEmbedding(vec![0.25, -1.5, f64::MIN_POSITIVE]),
                quality: 0.875,
            },
        });
        sig.topic_days =
            DaySeries::from_flat(vec![1, 5, 9], 2, vec![0.5, 0.5, 1.0, 0.0, 0.25, 0.75]);
        sig.style = UniqueWordProfile {
            words: vec!["clownfish".into(), "anemone".into()],
        };
        sig.embedding = vec![0.1, -0.0, 3.5e-300];
        sig.checkins = Timeline::from_events(vec![
            (
                86_400,
                GeoPoint {
                    lat: 1.25,
                    lon: -103.5,
                },
            ),
            (
                3_600,
                GeoPoint {
                    lat: -0.0,
                    lon: 0.0,
                },
            ),
        ]);
        sig.media = Timeline::from_events(vec![(
            7,
            MediaItem {
                fingerprint: 0xDEAD_BEEF,
            },
        )]);

        let back = round_trip_signals(&sig);
        assert_eq!(back.person, sig.person);
        assert_eq!(back.username, sig.username);
        assert_eq!(back.attrs, sig.attrs);
        assert_eq!(back.image, sig.image);
        assert_eq!(back.topic_days, sig.topic_days);
        assert_eq!(back.style, sig.style);
        // Bit-exact floats, signed zeros included.
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&back.embedding), bits(&sig.embedding));
        assert_eq!(back.checkins.as_slice().len(), 2);
        for ((ta, pa), (tb, pb)) in back.checkins.as_slice().iter().zip(sig.checkins.as_slice()) {
            assert_eq!(ta, tb);
            assert_eq!(pa.lat.to_bits(), pb.lat.to_bits());
            assert_eq!(pa.lon.to_bits(), pb.lon.to_bits());
        }
        assert_eq!(back.media.as_slice(), sig.media.as_slice());
    }

    /// A day series' wire bytes: the days, then one length-prefixed
    /// distribution per entry of `rows`.
    fn day_series_bytes(days: &[u16], rows: &[&[f64]]) -> Vec<u8> {
        let mut w = BytesMut::with_capacity(64);
        w.put_u64_le(days.len() as u64);
        for &d in days {
            w.put_u16_le(d);
        }
        w.put_u64_le(rows.len() as u64);
        for row in rows {
            put_f64_vec(&mut w, row);
        }
        w.into()
    }

    fn read_corrupt_day_series(bytes: &[u8]) -> String {
        match read_day_series(&mut Reader::new(bytes)) {
            Err(ModelIoError::Corrupt { what, .. }) => what,
            other => panic!("expected a Corrupt day series, got {other:?}"),
        }
    }

    #[test]
    fn day_series_round_trips_flat() {
        let bytes = day_series_bytes(&[1, 5, 9], &[&[0.5, 0.5], &[1.0, 0.0], &[0.25, 0.75]]);
        let mut r = Reader::new(&bytes);
        let series = read_day_series(&mut r).unwrap();
        assert_eq!(r.remaining(), 0);
        assert_eq!(series.days, [1, 5, 9]);
        let rows: Vec<&[f64]> = series.dists.iter().collect();
        assert_eq!(rows, [[0.5, 0.5], [1.0, 0.0], [0.25, 0.75]]);
        let mut w = BytesMut::with_capacity(64);
        put_day_series(&mut w, &series);
        assert_eq!(Vec::from(w), bytes);
    }

    #[test]
    fn day_series_with_more_days_than_distributions_is_corrupt() {
        let what = read_corrupt_day_series(&day_series_bytes(&[1, 5, 9], &[&[1.0], &[1.0]]));
        assert!(what.contains("2 distributions for 3 days"), "{what}");
    }

    #[test]
    fn day_series_with_ragged_distributions_is_corrupt() {
        let what =
            read_corrupt_day_series(&day_series_bytes(&[1, 5], &[&[0.5, 0.5], &[0.2, 0.3, 0.5]]));
        assert!(what.contains("distribution 1 has 3 values"), "{what}");
    }

    #[test]
    fn day_series_with_days_out_of_order_is_corrupt() {
        for days in [[5u16, 1], [4, 4]] {
            let what = read_corrupt_day_series(&day_series_bytes(&days, &[&[1.0], &[1.0]]));
            assert!(
                what.contains("days must strictly ascend"),
                "{days:?}: {what}"
            );
        }
    }

    #[test]
    fn graph_round_trip_canonical() {
        let mut b = GraphBuilder::new(5);
        b.add_edge(0, 3, 2.5);
        b.add_edge(1, 2, 0.125);
        b.add_edge(4, 0, 1.0);
        let g = b.build();

        let mut w = BytesMut::with_capacity(64);
        put_graph(&mut w, &g);
        let bytes = w.freeze().to_vec();
        let mut r = Reader::new(&bytes);
        let back = read_graph(&mut r, 5).unwrap();
        assert_eq!(back.num_nodes(), g.num_nodes());
        let ea: Vec<_> = g.edges().map(|(a, b, w)| (a, b, w.to_bits())).collect();
        let eb: Vec<_> = back.edges().map(|(a, b, w)| (a, b, w.to_bits())).collect();
        assert_eq!(ea, eb);

        // Canonical: re-encoding the decoded graph yields identical bytes.
        let mut w2 = BytesMut::with_capacity(64);
        put_graph(&mut w2, &back);
        assert_eq!(bytes, w2.freeze().to_vec());
    }

    #[test]
    fn graph_with_a_non_positive_weight_or_the_wrong_node_count_is_corrupt() {
        let graph_bytes = |num_nodes: u64, weight: f64| {
            let mut w = BytesMut::with_capacity(64);
            w.put_u64_le(num_nodes);
            w.put_u64_le(1);
            w.put_u32_le(0);
            w.put_u32_le(1);
            w.put_f64_le(weight);
            Vec::from(w)
        };
        for weight in [0.0, -1.0, f64::NAN] {
            let bytes = graph_bytes(2, weight);
            assert!(
                matches!(
                    read_graph(&mut Reader::new(&bytes), 2),
                    Err(ModelIoError::Corrupt { ref what, .. }) if what.contains("weight")
                ),
                "weight {weight}"
            );
        }
        let bytes = graph_bytes(3, 1.0);
        assert!(matches!(
            read_graph(&mut Reader::new(&bytes), 2),
            Err(ModelIoError::Corrupt { ref what, .. }) if what.contains("account slots")
        ));
    }

    #[test]
    fn engine_error_round_trip() {
        let cases = vec![
            EngineError::TaskOutOfRange {
                task: 9,
                num_tasks: 1,
            },
            EngineError::AccountRemoved {
                platform: 1,
                account: 17,
            },
            EngineError::Transient {
                site: "replica.insert",
            },
            EngineError::Transient {
                site: "something.unknown",
            },
            EngineError::ArtifactFingerprintMismatch {
                expected: 1,
                found: 2,
            },
            EngineError::InvalidShardCount,
        ];
        for e in cases {
            let mut w = BytesMut::with_capacity(64);
            put_engine_error(&mut w, &e);
            let bytes = w.freeze().to_vec();
            let mut r = Reader::new(&bytes);
            let back = read_engine_error(&mut r).unwrap();
            match (&e, &back) {
                (EngineError::Transient { site: a }, EngineError::Transient { site: b }) => {
                    if *a == "something.unknown" {
                        assert_eq!(*b, "remote.transient");
                    } else {
                        assert_eq!(a, b);
                    }
                }
                _ => assert_eq!(format!("{e:?}"), format!("{back:?}")),
            }
        }
    }
}
