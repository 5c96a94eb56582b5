//! Platform specifications and the seven presets of Section 7.1.
//!
//! Each spec encodes how one platform distorts a person's latent signals:
//! what fraction of attributes users hide there, how usernames are styled,
//! how much the platform's content drifts from the person's true interests
//! ("a 25% to 85% difference in user generated content between different
//! platforms"), how asynchronous cross-posting is, and how active users are
//! (data imbalance between primary and secondary accounts).

use crate::attributes::AttrKind;

/// Platform language family (drives username styling and content pools).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Language {
    /// Chinese platforms (Sina Weibo, Tencent Weibo, Renren, Douban, Kaixin).
    Chinese,
    /// English platforms (Twitter, Facebook).
    English,
}

/// Full behavioral specification of one platform.
#[derive(Debug, Clone)]
pub struct PlatformSpec {
    /// Display name.
    pub name: &'static str,
    /// Language family.
    pub language: Language,
    /// Multiplier on each attribute's base missingness (1.0 = the calibrated
    /// Figure-2a rate).
    pub missing_multiplier: f64,
    /// Multiplier on each attribute's base deception rate.
    pub deception_multiplier: f64,
    /// Activity multiplier (data imbalance: a user's primary platform sees
    /// several times the posting volume of the rest).
    pub activity_scale: f64,
    /// Probability a post's topic/genre is drawn from the platform drift
    /// distribution instead of the person's preferences (0.25–0.85).
    pub content_divergence: f64,
    /// Std-dev of the per-account temporal shift, in days (behavior
    /// asynchrony).
    pub time_shift_days: f64,
    /// Probability the account has a profile image at all.
    pub image_prob: f64,
    /// Probability a present image has no detectable face (scenery/cartoon).
    pub no_face_prob: f64,
    /// Probability a present face is fake (someone else's).
    pub fake_face_prob: f64,
    /// Embedding noise applied to genuine profile faces.
    pub face_noise: f64,
    /// Fraction of true friendships absent on this platform.
    pub edge_dropout: f64,
    /// Expected location check-ins per day.
    pub checkin_rate: f64,
    /// Expected media shares per day.
    pub media_rate: f64,
    /// Richness of re-share dynamics (Chinese platforms "have much more
    /// retweets and a greater diffusion speed"): scales how much of a
    /// friend's content a user re-posts, adding content the person did not
    /// originate.
    pub reshare_rate: f64,
}

impl PlatformSpec {
    /// Effective missing probability for one attribute on this platform.
    pub fn missing_prob(&self, attr: AttrKind) -> f64 {
        (attr.base_missing_prob() * self.missing_multiplier).min(0.97)
    }

    /// Effective deception probability for one attribute.
    pub fn deception_prob(&self, attr: AttrKind) -> f64 {
        (attr.base_deception_prob() * self.deception_multiplier).min(0.5)
    }
}

/// Sina Weibo: the hybrid micro-blog — high activity, heavy reshares, high
/// divergence, terse profiles.
pub fn sina_weibo() -> PlatformSpec {
    PlatformSpec {
        name: "sina-weibo",
        language: Language::Chinese,
        missing_multiplier: 1.1,
        deception_multiplier: 1.2,
        activity_scale: 1.6,
        content_divergence: 0.55,
        time_shift_days: 2.0,
        image_prob: 0.75,
        no_face_prob: 0.35,
        fake_face_prob: 0.08,
        face_noise: 0.20,
        edge_dropout: 0.25,
        checkin_rate: 0.10,
        media_rate: 0.25,
        reshare_rate: 0.45,
    }
}

/// Tencent Weibo: twitter-like, slightly sparser profiles.
fn tencent_weibo() -> PlatformSpec {
    PlatformSpec {
        name: "tencent-weibo",
        language: Language::Chinese,
        missing_multiplier: 1.25,
        deception_multiplier: 1.1,
        activity_scale: 0.9,
        content_divergence: 0.60,
        time_shift_days: 3.0,
        image_prob: 0.65,
        no_face_prob: 0.40,
        fake_face_prob: 0.10,
        face_noise: 0.22,
        edge_dropout: 0.35,
        checkin_rate: 0.06,
        media_rate: 0.18,
        reshare_rate: 0.40,
    }
}

/// Renren: the "Facebook of China" — fuller profiles, real-name culture.
fn renren() -> PlatformSpec {
    PlatformSpec {
        name: "renren",
        language: Language::Chinese,
        missing_multiplier: 0.8,
        deception_multiplier: 0.8,
        activity_scale: 0.7,
        content_divergence: 0.40,
        time_shift_days: 2.5,
        image_prob: 0.85,
        no_face_prob: 0.20,
        fake_face_prob: 0.05,
        face_noise: 0.15,
        edge_dropout: 0.20,
        checkin_rate: 0.05,
        media_rate: 0.20,
        reshare_rate: 0.25,
    }
}

/// Douban: interest-centric (books/movies/music) — highest divergence,
/// pseudonymous.
pub fn douban() -> PlatformSpec {
    PlatformSpec {
        name: "douban",
        language: Language::Chinese,
        missing_multiplier: 1.35,
        deception_multiplier: 1.0,
        activity_scale: 0.5,
        content_divergence: 0.85,
        time_shift_days: 5.0,
        image_prob: 0.55,
        no_face_prob: 0.55,
        fake_face_prob: 0.05,
        face_noise: 0.25,
        edge_dropout: 0.45,
        checkin_rate: 0.02,
        media_rate: 0.12,
        reshare_rate: 0.15,
    }
}

/// Kaixin: casual social gaming network.
pub fn kaixin() -> PlatformSpec {
    PlatformSpec {
        name: "kaixin",
        language: Language::Chinese,
        missing_multiplier: 1.15,
        deception_multiplier: 1.1,
        activity_scale: 0.45,
        content_divergence: 0.65,
        time_shift_days: 4.0,
        image_prob: 0.60,
        no_face_prob: 0.35,
        fake_face_prob: 0.08,
        face_noise: 0.22,
        edge_dropout: 0.40,
        checkin_rate: 0.03,
        media_rate: 0.10,
        reshare_rate: 0.20,
    }
}

/// Twitter: terse, public, moderate divergence, slower diffusion than Sina
/// Weibo (Section 7.2's comparison).
pub fn twitter() -> PlatformSpec {
    PlatformSpec {
        name: "twitter",
        language: Language::English,
        missing_multiplier: 1.0,
        deception_multiplier: 0.9,
        activity_scale: 1.2,
        content_divergence: 0.40,
        time_shift_days: 1.5,
        image_prob: 0.80,
        no_face_prob: 0.30,
        fake_face_prob: 0.05,
        face_noise: 0.18,
        edge_dropout: 0.22,
        checkin_rate: 0.08,
        media_rate: 0.20,
        reshare_rate: 0.25,
    }
}

/// Facebook: fuller profiles, friend-graph-centric.
pub fn facebook() -> PlatformSpec {
    PlatformSpec {
        name: "facebook",
        language: Language::English,
        missing_multiplier: 0.75,
        deception_multiplier: 0.7,
        activity_scale: 0.8,
        content_divergence: 0.30,
        time_shift_days: 2.0,
        image_prob: 0.90,
        no_face_prob: 0.18,
        fake_face_prob: 0.03,
        face_noise: 0.15,
        edge_dropout: 0.15,
        checkin_rate: 0.07,
        media_rate: 0.25,
        reshare_rate: 0.15,
    }
}

/// The five-platform "Chinese" preset of Section 7.1.
pub fn chinese_platforms() -> Vec<PlatformSpec> {
    vec![sina_weibo(), tencent_weibo(), renren(), douban(), kaixin()]
}

/// The two-platform "English" preset.
pub fn english_platforms() -> Vec<PlatformSpec> {
    vec![twitter(), facebook()]
}

/// All seven platforms (the Figure-13 cross-cultural experiment).
pub fn all_platforms() -> Vec<PlatformSpec> {
    let mut v = chinese_platforms();
    v.extend(english_platforms());
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_have_expected_sizes() {
        assert_eq!(chinese_platforms().len(), 5);
        assert_eq!(english_platforms().len(), 2);
        assert_eq!(all_platforms().len(), 7);
    }

    #[test]
    fn divergence_spans_the_paper_range() {
        let all = all_platforms();
        let lo = all.iter().map(|p| p.content_divergence).fold(1.0, f64::min);
        let hi = all.iter().map(|p| p.content_divergence).fold(0.0, f64::max);
        assert!(lo <= 0.30 && hi >= 0.85, "divergence range [{lo},{hi}]");
    }

    #[test]
    fn probabilities_stay_valid() {
        for p in all_platforms() {
            for a in crate::attributes::ALL_ATTRS {
                let m = p.missing_prob(a);
                let d = p.deception_prob(a);
                assert!((0.0..=1.0).contains(&m), "{} {a:?} missing {m}", p.name);
                assert!((0.0..=0.5).contains(&d), "{} {a:?} deception {d}", p.name);
            }
            assert!((0.0..=1.0).contains(&p.content_divergence));
            assert!((0.0..=1.0).contains(&p.image_prob));
            assert!((0.0..=1.0).contains(&p.edge_dropout));
        }
    }

    #[test]
    fn chinese_platforms_have_richer_dynamics_on_average() {
        let cn: f64 = chinese_platforms()
            .iter()
            .map(|p| p.reshare_rate)
            .sum::<f64>()
            / 5.0;
        let en: f64 = english_platforms()
            .iter()
            .map(|p| p.reshare_rate)
            .sum::<f64>()
            / 2.0;
        assert!(cn > en, "cn reshare {cn} should exceed en {en}");
        let cn_shift: f64 = chinese_platforms()
            .iter()
            .map(|p| p.time_shift_days)
            .sum::<f64>()
            / 5.0;
        let en_shift: f64 = english_platforms()
            .iter()
            .map(|p| p.time_shift_days)
            .sum::<f64>()
            / 2.0;
        assert!(cn_shift > en_shift);
    }

    #[test]
    fn names_are_unique() {
        let names: std::collections::HashSet<&str> =
            all_platforms().iter().map(|p| p.name).collect();
        assert_eq!(names.len(), 7);
    }
}
