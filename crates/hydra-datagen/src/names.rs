//! Name pools, city geography, and platform-specific username mangling.
//!
//! Figure 1's motivating example: the same "Adele" registers as
//! "Adele Robinson" on an English platform, "Adele_小暖" or "马素文Adele" on a
//! Chinese one, and "some users may even add bizarre characters for
//! eccentricity". Username derivation here reproduces those styles so that
//! username-centric baselines work sometimes — and break exactly where the
//! paper says they break.

use crate::platform::Language;
use hydra_temporal::GeoPoint;
use rand::Rng;

/// Latin given names (shared across cultures for the bilingual scenario).
pub const GIVEN_NAMES: [&str; 24] = [
    "adele", "wei", "ming", "lena", "marco", "yuki", "omar", "nina", "jun", "sara", "leo", "mei",
    "ivan", "tara", "ken", "lily", "hugo", "xin", "emma", "ravi", "ana", "bo", "zoe", "li",
];

/// Family names.
pub const FAMILY_NAMES: [&str; 20] = [
    "wang", "smith", "zhang", "garcia", "chen", "mueller", "liu", "rossi", "zhao", "kim", "tanaka",
    "brown", "lin", "silva", "sun", "dubois", "gao", "novak", "wu", "lee",
];

/// CJK decoration fragments for Chinese-platform usernames (the "Adele_小暖"
/// pattern of Figure 1).
pub const CJK_DECOR: [&str; 8] = [
    "小暖", "素文", "晓明", "雨桐", "子涵", "思远", "梦琪", "浩然",
];

/// "Bizarre characters for eccentricity".
pub const ECCENTRIC: [&str; 6] = ["xX", "~*", "__", "!!", "·", "ღ"];

/// Number of cities in the geography table.
pub const NUM_CITIES: usize = 16;

/// City table: `(name, lat, lon)`. A mix of Chinese and global cities so the
/// two datasets share some mobility space.
pub const CITIES: [(&str, f64, f64); NUM_CITIES] = [
    ("beijing", 39.9042, 116.4074),
    ("shanghai", 31.2304, 121.4737),
    ("guangzhou", 23.1291, 113.2644),
    ("shenzhen", 22.5431, 114.0579),
    ("chengdu", 30.5728, 104.0668),
    ("hangzhou", 30.2741, 120.1551),
    ("wuhan", 30.5928, 114.3055),
    ("xian", 34.3416, 108.9398),
    ("hongkong", 22.3193, 114.1694),
    ("singapore", 1.3521, 103.8198),
    ("newyork", 40.7128, -74.0060),
    ("london", 51.5074, -0.1278),
    ("sanfrancisco", 37.7749, -122.4194),
    ("tokyo", 35.6762, 139.6503),
    ("sydney", -33.8688, 151.2093),
    ("paris", 48.8566, 2.3522),
];

/// Geographic coordinates of a city index.
pub fn city_location(city: usize) -> GeoPoint {
    let (_, lat, lon) = CITIES[city % NUM_CITIES];
    GeoPoint { lat, lon }
}

/// How a platform derives a username from the person's name parts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UsernameStyle {
    /// `given.family` or `given_family` — typical English-platform style.
    FullName,
    /// `given` + digits (birth year or random) — "adele2024".
    GivenDigits,
    /// `given` + CJK decoration — "adele小暖".
    CjkDecorated,
    /// family-name-first CJK style + latin given — "素文adele".
    CjkFamilyFirst,
    /// Eccentric decorations — "xXadeleXx".
    Eccentric,
    /// A completely unrelated handle — the deceptive case username parsers
    /// cannot recover.
    Unrelated,
}

/// Distribution over username styles for a platform language. Chinese
/// platforms mix CJK decorations heavily; English platforms favor
/// `FullName`/`GivenDigits`. Both keep a deceptive tail.
fn style_distribution(language: Language) -> Vec<(UsernameStyle, f64)> {
    match language {
        Language::English => vec![
            (UsernameStyle::FullName, 0.40),
            (UsernameStyle::GivenDigits, 0.30),
            (UsernameStyle::Eccentric, 0.12),
            (UsernameStyle::CjkDecorated, 0.06),
            (UsernameStyle::CjkFamilyFirst, 0.02),
            (UsernameStyle::Unrelated, 0.10),
        ],
        Language::Chinese => vec![
            (UsernameStyle::FullName, 0.12),
            (UsernameStyle::GivenDigits, 0.18),
            (UsernameStyle::Eccentric, 0.10),
            (UsernameStyle::CjkDecorated, 0.30),
            (UsernameStyle::CjkFamilyFirst, 0.18),
            (UsernameStyle::Unrelated, 0.12),
        ],
    }
}

/// Derive a username for `(given, family)` in the given style.
pub fn make_username<R: Rng>(
    style: UsernameStyle,
    given: &str,
    family: &str,
    birth_year: u16,
    rng: &mut R,
) -> String {
    match style {
        UsernameStyle::FullName => {
            let sep = ['.', '_', ' '][rng.gen_range(0..3)];
            format!("{given}{sep}{family}")
        }
        UsernameStyle::GivenDigits => {
            if rng.gen_bool(0.5) {
                format!("{given}{}", birth_year % 100)
            } else {
                format!("{given}{}", rng.gen_range(10..999))
            }
        }
        UsernameStyle::CjkDecorated => {
            let d = CJK_DECOR[rng.gen_range(0..CJK_DECOR.len())];
            if rng.gen_bool(0.5) {
                format!("{given}_{d}")
            } else {
                format!("{given}{d}")
            }
        }
        UsernameStyle::CjkFamilyFirst => {
            let d = CJK_DECOR[rng.gen_range(0..CJK_DECOR.len())];
            format!("{d}{given}")
        }
        UsernameStyle::Eccentric => {
            let e = ECCENTRIC[rng.gen_range(0..ECCENTRIC.len())];
            format!("{e}{given}{e}")
        }
        UsernameStyle::Unrelated => {
            // A handle built from unrelated syllable words + digits.
            format!(
                "{}{}",
                crate::words::word("handle", rng.gen_range(0..5000)),
                rng.gen_range(0..99)
            )
        }
    }
}

/// Sample a style from the platform's distribution.
pub fn sample_style<R: Rng>(language: Language, rng: &mut R) -> UsernameStyle {
    let dist = style_distribution(language);
    let mut u: f64 = rng.gen();
    for (style, p) in &dist {
        if u < *p {
            return *style;
        }
        u -= p;
    }
    dist.last().expect("non-empty style distribution").0
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn style_distributions_sum_to_one() {
        for lang in [Language::English, Language::Chinese] {
            let total: f64 = style_distribution(lang).iter().map(|(_, p)| p).sum();
            assert!((total - 1.0).abs() < 1e-9, "{lang:?} sums to {total}");
        }
    }

    #[test]
    fn usernames_contain_given_name_when_not_unrelated() {
        let mut rng = StdRng::seed_from_u64(1);
        for style in [
            UsernameStyle::FullName,
            UsernameStyle::GivenDigits,
            UsernameStyle::CjkDecorated,
            UsernameStyle::CjkFamilyFirst,
            UsernameStyle::Eccentric,
        ] {
            let u = make_username(style, "adele", "wang", 1990, &mut rng);
            assert!(u.contains("adele"), "{style:?} produced {u}");
        }
    }

    #[test]
    fn unrelated_usernames_hide_the_name() {
        let mut rng = StdRng::seed_from_u64(2);
        let u = make_username(UsernameStyle::Unrelated, "adele", "wang", 1990, &mut rng);
        assert!(!u.contains("adele"));
        assert!(!u.contains("wang"));
    }

    #[test]
    fn chinese_styles_produce_cjk() {
        let mut rng = StdRng::seed_from_u64(3);
        let u = make_username(UsernameStyle::CjkDecorated, "adele", "wang", 1990, &mut rng);
        assert!(!u.is_ascii(), "expected CJK in {u}");
    }

    #[test]
    fn sampling_covers_styles() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..500 {
            seen.insert(sample_style(Language::Chinese, &mut rng));
        }
        assert!(seen.len() >= 5, "only saw {seen:?}");
    }

    #[test]
    fn city_locations_in_range() {
        for c in 0..NUM_CITIES {
            let p = city_location(c);
            assert!((-90.0..=90.0).contains(&p.lat) && (-180.0..=180.0).contains(&p.lon));
        }
        // Wraps for out-of-range index.
        assert_eq!(city_location(NUM_CITIES).lat, city_location(0).lat);
    }
}
