//! Per-account event generation: posts, check-ins, and media shares.
//!
//! Every event stream is driven by the person's latent signals, distorted by
//! the platform spec along the paper's misalignment axes:
//!
//! * **Platform difference** — with probability `content_divergence`, a
//!   post's topic/genre comes from a platform drift distribution instead of
//!   the author's preferences;
//! * **Behavior asynchrony** — posts and media shares are shifted by a
//!   per-account offset (days-scale), check-ins only by hours (the person is
//!   physically somewhere on a given day; only the *posting* lags);
//! * **Data imbalance** — post volume scales with `activity_scale`;
//! * **Reshare dynamics** — with probability `reshare_rate`, a post's
//!   content is generated from a random friend's preferences (content the
//!   user did not originate), diluting the personal signal on high-diffusion
//!   platforms.

use crate::person::{sample_categorical, NaturalPerson};
use crate::platform::PlatformSpec;
use crate::words;
use hydra_temporal::{days, GeoPoint, MediaItem, Timeline, Timestamp};
use hydra_text::Vocabulary;
use rand::Rng;

/// Words per topic lexicon.
pub const TOPIC_LEXICON: usize = 120;
/// Size of the shared common-word pool.
pub const COMMON_POOL: usize = 300;

/// One textual message on a platform.
#[derive(Debug, Clone, PartialEq)]
pub struct Post {
    /// Interned token ids (against the dataset vocabulary).
    pub tokens: Vec<u32>,
    /// Platform-assigned content genre.
    pub genre: u16,
    /// Latent generating topic (ground truth for diagnostics only —
    /// the model must rediscover topics via LDA).
    pub topic: u16,
    /// Latent sentiment category index.
    pub sentiment: u8,
    /// Whether the content was reshared from a friend.
    pub reshared: bool,
}

/// A person-level media share planned at a given day; platforms each decide
/// whether and when to surface it.
#[derive(Debug, Clone, Copy)]
pub struct MediaPlan {
    /// Day (since window origin) the person shares this item.
    pub day: u32,
    /// Content fingerprint.
    pub fingerprint: u64,
}

/// Deterministic fingerprint for item `k` of person `p`.
fn media_fingerprint(person: u32, k: u32) -> u64 {
    let mut h = (person as u64) << 32 | k as u64;
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51afd7ed558ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ceb9fe1a85ec53);
    h ^ (h >> 33)
}

/// Build the person-level media-share plan: which items get shared on which
/// days. Shared across the person's platforms so near-duplicate detection
/// has something to find.
pub fn plan_media<R: Rng>(
    person_idx: u32,
    window_days: u32,
    expected_shares: f64,
    rng: &mut R,
) -> Vec<MediaPlan> {
    let n = (expected_shares + rng.gen::<f64>() * expected_shares).round() as u32;
    let lib = 4 + (expected_shares as u32).max(1) * 2; // personal library size
    (0..n)
        .map(|_| MediaPlan {
            day: rng.gen_range(0..window_days),
            fingerprint: media_fingerprint(person_idx, rng.gen_range(0..lib)),
        })
        .collect()
}

/// Random second within day `d`, plus `shift` seconds, clamped into the
/// window.
fn day_time<R: Rng>(d: u32, shift: i64, window_days: u32, rng: &mut R) -> Timestamp {
    let t = days(d as i64) + rng.gen_range(0..86_400) + shift;
    t.clamp(0, days(window_days as i64) - 1)
}

/// Approximate zero-mean normal via the sum of three uniforms.
fn approx_normal<R: Rng>(std_dev: f64, rng: &mut R) -> f64 {
    let u = rng.gen::<f64>() + rng.gen::<f64>() + rng.gen::<f64>() - 1.5;
    u * 2.0 * std_dev
}

/// Generate one post's token stream given the generating preferences.
#[allow(clippy::too_many_arguments)]
fn make_post<R: Rng>(
    topic_prefs: &[f64],
    genre_prefs: &[f64],
    sentiment_prefs: &[f64; 4],
    signature_words: &[String],
    platform_drift_topics: &[f64],
    platform_drift_genres: &[f64],
    divergence: f64,
    reshared: bool,
    vocab: &mut Vocabulary,
    rng: &mut R,
) -> Post {
    // Topic/genre: person preference vs platform drift.
    let topic = if rng.gen_bool(divergence) {
        sample_categorical(platform_drift_topics, rng)
    } else {
        sample_categorical(topic_prefs, rng)
    };
    let genre = if rng.gen_bool(divergence) {
        sample_categorical(platform_drift_genres, rng)
    } else {
        sample_categorical(genre_prefs, rng)
    };
    let sentiment = sample_categorical(sentiment_prefs, rng);

    let len = rng.gen_range(6..=12);
    let mut tokens: Vec<String> = Vec::with_capacity(len + 2);
    for _ in 0..len {
        let r: f64 = rng.gen();
        if r < 0.6 {
            // Zipf-ish draw within the topic lexicon.
            let z = (rng.gen::<f64>().powi(2) * TOPIC_LEXICON as f64) as usize;
            tokens.push(words::topic_word(topic, z.min(TOPIC_LEXICON - 1)));
        } else {
            let z = (rng.gen::<f64>().powi(2) * COMMON_POOL as f64) as usize;
            tokens.push(words::common_word(z.min(COMMON_POOL - 1)));
        }
    }
    // Emotional keyword expressing the post sentiment (categories 0..2 are
    // emotional; neutral posts carry none).
    if sentiment < 3 && rng.gen_bool(0.7) {
        let family = ["senti-happy", "senti-fear", "senti-sad"][sentiment];
        tokens.push(words::word(family, rng.gen_range(0..10)));
    }
    // Personal signature word (only for self-authored content).
    if !reshared && !signature_words.is_empty() && rng.gen_bool(0.18) {
        tokens.push(signature_words[rng.gen_range(0..signature_words.len())].clone());
    }

    Post {
        tokens: vocab.add_document(&tokens),
        genre: genre as u16,
        topic: topic as u16,
        sentiment: sentiment as u8,
        reshared,
    }
}

/// Everything the event generator needs about the platform's drift.
pub struct PlatformDrift {
    /// Platform-level topic bias (peaked on a few platform-typical topics).
    pub topics: Vec<f64>,
    /// Platform-level genre bias.
    pub genres: Vec<f64>,
}

/// Generate all event streams for one account.
///
/// `friends` supplies the topic preferences of the person's friends for
/// reshare generation (may be empty).
#[allow(clippy::too_many_arguments)]
pub fn generate_account_events<R: Rng>(
    person: &NaturalPerson,
    person_idx: u32,
    spec: &PlatformSpec,
    drift: &PlatformDrift,
    friends: &[&NaturalPerson],
    media_plan: &[MediaPlan],
    window_days: u32,
    vocab: &mut Vocabulary,
    rng: &mut R,
) -> (Timeline<Post>, Timeline<GeoPoint>, Timeline<MediaItem>, i64) {
    // Behavior asynchrony: account-level shift in seconds.
    let shift_secs = (approx_normal(spec.time_shift_days, rng) * 86_400.0) as i64;

    // --- posts -------------------------------------------------------------
    let expected = person.activity_rate * spec.activity_scale * window_days as f64;
    let num_posts = (expected * (0.75 + rng.gen::<f64>() * 0.5))
        .round()
        .max(1.0) as usize;
    let mut posts = Vec::with_capacity(num_posts);
    for _ in 0..num_posts {
        let d = rng.gen_range(0..window_days);
        let t = day_time(d, shift_secs, window_days, rng);
        let reshared = !friends.is_empty() && rng.gen_bool(spec.reshare_rate);
        let post = if reshared {
            let f = friends[rng.gen_range(0..friends.len())];
            make_post(
                &f.topic_prefs,
                &f.genre_prefs,
                &f.sentiment_prefs,
                &[],
                &drift.topics,
                &drift.genres,
                spec.content_divergence,
                true,
                vocab,
                rng,
            )
        } else {
            make_post(
                &person.topic_prefs,
                &person.genre_prefs,
                &person.sentiment_prefs,
                &person.signature_words,
                &drift.topics,
                &drift.genres,
                spec.content_divergence,
                false,
                vocab,
                rng,
            )
        };
        posts.push((t, post));
    }

    // --- check-ins -----------------------------------------------------------
    // Grounded in the person's physical day location; only hour-level lag.
    let mut checkins = Vec::new();
    for d in 0..window_days {
        if rng.gen_bool(spec.checkin_rate.min(1.0)) {
            let base = person.location_on_day(d);
            let jitter_km = person.mobility_km;
            // ~1 degree latitude ≈ 111 km.
            let lat = base.lat + approx_normal(jitter_km / 111.0 / 2.0, rng);
            let lon = base.lon + approx_normal(jitter_km / 111.0 / 2.0, rng);
            let t = day_time(d, rng.gen_range(-7200..7200), window_days, rng);
            checkins.push((t, GeoPoint { lat, lon }));
        }
    }

    // --- media shares ---------------------------------------------------------
    // Surface a subset of the person-level plan, with asynchrony and
    // occasional near-duplicate (bit-flipped) fingerprints.
    let mut media = Vec::new();
    let surface_prob = (spec.media_rate * 4.0).clamp(0.2, 0.9);
    for plan in media_plan {
        if !rng.gen_bool(surface_prob) {
            continue;
        }
        let mut fp = plan.fingerprint;
        // Re-encoding flips 0–2 random bits.
        for _ in 0..rng.gen_range(0..=2) {
            fp ^= 1u64 << rng.gen_range(0..64);
        }
        let t = day_time(plan.day, shift_secs, window_days, rng);
        media.push((t, MediaItem { fingerprint: fp }));
    }
    let _ = person_idx;

    (
        Timeline::from_events(posts),
        Timeline::from_events(checkins),
        Timeline::from_events(media),
        shift_secs,
    )
}

/// Build a platform's drift distributions (peaked on a deterministic,
/// platform-specific topic subset so two platforms drift differently).
pub fn platform_drift<R: Rng>(num_topics: usize, num_genres: usize, rng: &mut R) -> PlatformDrift {
    PlatformDrift {
        topics: crate::person::peaked_distribution(num_topics, 2, 4.0, rng),
        genres: crate::person::peaked_distribution(num_genres, 2, 4.0, rng),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (
        NaturalPerson,
        PlatformSpec,
        PlatformDrift,
        Vocabulary,
        StdRng,
    ) {
        let mut rng = StdRng::seed_from_u64(11);
        let person = NaturalPerson::sample(3, 8, 10, 64, &mut rng);
        let spec = crate::platform::twitter();
        let drift = platform_drift(8, 10, &mut rng);
        (person, spec, drift, Vocabulary::new(), rng)
    }

    #[test]
    fn posts_are_generated_with_valid_fields() {
        let (person, spec, drift, mut vocab, mut rng) = setup();
        let plan = plan_media(3, 64, 6.0, &mut rng);
        let (posts, _, _, _) = generate_account_events(
            &person,
            3,
            &spec,
            &drift,
            &[],
            &plan,
            64,
            &mut vocab,
            &mut rng,
        );
        assert!(!posts.is_empty());
        for (t, p) in posts.iter() {
            assert!(*t >= 0 && *t < days(64));
            assert!(!p.tokens.is_empty());
            assert!((p.genre as usize) < 10);
            assert!((p.topic as usize) < 8);
            assert!((p.sentiment as usize) < 4);
        }
        assert!(vocab.len() > 50, "vocabulary should grow: {}", vocab.len());
    }

    #[test]
    fn activity_scale_controls_volume() {
        let (person, mut spec, drift, mut vocab, mut rng) = setup();
        let plan = vec![];
        spec.activity_scale = 0.3;
        let (low, ..) = generate_account_events(
            &person,
            3,
            &spec,
            &drift,
            &[],
            &plan,
            64,
            &mut vocab,
            &mut rng,
        );
        spec.activity_scale = 2.0;
        let (high, ..) = generate_account_events(
            &person,
            3,
            &spec,
            &drift,
            &[],
            &plan,
            64,
            &mut vocab,
            &mut rng,
        );
        assert!(
            high.len() > 2 * low.len(),
            "imbalance not reflected: {} vs {}",
            high.len(),
            low.len()
        );
    }

    #[test]
    fn posts_reflect_person_topics_at_low_divergence() {
        let (person, mut spec, drift, mut vocab, mut rng) = setup();
        spec.content_divergence = 0.0;
        spec.reshare_rate = 0.0;
        let (posts, ..) = generate_account_events(
            &person,
            3,
            &spec,
            &drift,
            &[],
            &[],
            64,
            &mut vocab,
            &mut rng,
        );
        // Empirical topic distribution should track the preference vector
        // (exact argmax agreement is noisy at small post counts, so check
        // correlation and that the top preference is well represented).
        let mut counts = [0.0f64; 8];
        for (_, p) in posts.iter() {
            counts[p.topic as usize] += 1.0;
        }
        let total: f64 = counts.iter().sum();
        counts.iter_mut().for_each(|c| *c /= total);
        let corr = {
            let mp: f64 = person.topic_prefs.iter().sum::<f64>() / 8.0;
            let mc: f64 = counts.iter().sum::<f64>() / 8.0;
            let mut num = 0.0;
            let mut dp = 0.0;
            let mut dc = 0.0;
            for (p, c) in person.topic_prefs.iter().zip(counts.iter()) {
                num += (p - mp) * (c - mc);
                dp += (p - mp) * (p - mp);
                dc += (c - mc) * (c - mc);
            }
            num / (dp * dc).sqrt()
        };
        assert!(corr > 0.8, "posted topics decorrelated from prefs: {corr}");
    }

    #[test]
    fn checkins_near_home_or_trips() {
        let (person, mut spec, drift, mut vocab, mut rng) = setup();
        spec.checkin_rate = 0.8;
        let (_, checkins, _, _) = generate_account_events(
            &person,
            3,
            &spec,
            &drift,
            &[],
            &[],
            64,
            &mut vocab,
            &mut rng,
        );
        assert!(!checkins.is_empty());
        for (_, loc) in checkins.iter() {
            // Within mobility distance of *some* latent location.
            let day_locs: Vec<_> = (0..64).map(|d| person.location_on_day(d)).collect();
            let min_km = day_locs
                .iter()
                .map(|c| hydra_temporal::haversine_km(*c, *loc))
                .fold(f64::INFINITY, f64::min);
            assert!(
                min_km < 120.0,
                "checkin {min_km}km from any latent location"
            );
        }
    }

    #[test]
    fn media_fingerprints_near_duplicates_of_plan() {
        let (person, mut spec, drift, mut vocab, mut rng) = setup();
        spec.media_rate = 0.25; // high surfacing probability
        let plan = plan_media(3, 64, 8.0, &mut rng);
        let (_, _, media, _) = generate_account_events(
            &person,
            3,
            &spec,
            &drift,
            &[],
            &plan,
            64,
            &mut vocab,
            &mut rng,
        );
        for (_, item) in media.iter() {
            let best = plan
                .iter()
                .map(|p| (p.fingerprint ^ item.fingerprint).count_ones())
                .min()
                .unwrap();
            assert!(best <= 2, "fingerprint drifted {best} bits");
        }
    }

    #[test]
    fn fingerprints_are_person_specific() {
        assert_ne!(media_fingerprint(1, 0), media_fingerprint(2, 0));
        assert_ne!(media_fingerprint(1, 0), media_fingerprint(1, 1));
        assert_eq!(media_fingerprint(5, 3), media_fingerprint(5, 3));
    }

    #[test]
    fn reshares_marked_and_signatureless() {
        let (person, mut spec, drift, mut vocab, mut rng) = setup();
        spec.reshare_rate = 1.0;
        let friend = NaturalPerson::sample(9, 8, 10, 64, &mut rng);
        let (posts, ..) = generate_account_events(
            &person,
            3,
            &spec,
            &drift,
            &[&friend],
            &[],
            64,
            &mut vocab,
            &mut rng,
        );
        assert!(posts.iter().all(|(_, p)| p.reshared));
    }
}
