//! SMaSh (Hassanzadeh et al., PVLDB'13 — "Discovering linkage points over
//! web data") \[11\].
//!
//! A record-linkage approach: it never trains a classifier. Instead it
//! *discovers linkage points* — attribute pairs whose value sets overlap
//! strongly and discriminatively across the two sources — and links records
//! that agree on discovered points. We evaluate every (attribute, attribute)
//! pair with the paper's two core measures:
//!
//! * **coverage** — `|V_a ∩ V_b| / min(|V_a|, |V_b|)`: how much of the
//!   smaller value set appears in both sources;
//! * **strength** — inverse average bucket size of the intersection values:
//!   a value shared by thousands of records is a weak join key.
//!
//! Usernames participate as a normalized pseudo-attribute. Candidates are
//! scored by the summed strength of the linkage points they agree on.

use crate::{LinkageMethod, LinkageTask};
use hydra_core::model::LinkagePrediction;
use hydra_core::signals::UserSignals;
use hydra_datagen::attributes::{ALL_ATTRS, NUM_ATTRS};
use std::collections::HashMap;

/// One discovered linkage point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkagePoint {
    /// Attribute index (`NUM_ATTRS` = the username pseudo-attribute).
    pub attr: usize,
    /// Coverage of the value-set intersection.
    pub coverage: f64,
    /// Discriminative strength in `(0, 1]`.
    pub strength: f64,
}

/// SMaSh configuration.
#[derive(Debug, Clone, Copy)]
pub struct Smash {
    /// Minimum coverage to accept a linkage point.
    pub min_coverage: f64,
    /// Minimum strength to accept a linkage point.
    pub min_strength: f64,
    /// Score threshold for declaring a link.
    pub link_threshold: f64,
}

impl Default for Smash {
    fn default() -> Self {
        Smash {
            min_coverage: 0.05,
            min_strength: 0.2,
            link_threshold: 0.5,
        }
    }
}

/// The username pseudo-attribute index.
pub const USERNAME_ATTR: usize = NUM_ATTRS;

/// Normalized username key (lower-cased alphanumerics only) — SMaSh-style
/// value normalization before set intersection.
fn username_key(name: &str) -> u64 {
    let norm: String = name
        .chars()
        .filter(|c| c.is_ascii_alphanumeric())
        .collect::<String>()
        .to_ascii_lowercase();
    // FNV-1a.
    let mut h: u64 = 0xcbf29ce484222325;
    for b in norm.bytes() {
        h = (h ^ b as u64).wrapping_mul(0x100000001b3);
    }
    h
}

/// Attribute value of `sig` under extended indexing (username included).
fn attr_value(sig: &UserSignals, attr: usize) -> Option<u64> {
    if attr == USERNAME_ATTR {
        Some(username_key(&sig.username))
    } else {
        sig.attrs[attr]
    }
}

impl Smash {
    /// Discover linkage points between the two sources.
    fn discover(&self, left: &[UserSignals], right: &[UserSignals]) -> Vec<LinkagePoint> {
        let mut points = Vec::new();
        for attr in 0..=NUM_ATTRS {
            if attr < NUM_ATTRS && !ALL_ATTRS.iter().any(|k| k.index() == attr) {
                continue;
            }
            let mut left_buckets: HashMap<u64, usize> = HashMap::new();
            let mut right_buckets: HashMap<u64, usize> = HashMap::new();
            for s in left {
                if let Some(v) = attr_value(s, attr) {
                    *left_buckets.entry(v).or_insert(0) += 1;
                }
            }
            for s in right {
                if let Some(v) = attr_value(s, attr) {
                    *right_buckets.entry(v).or_insert(0) += 1;
                }
            }
            if left_buckets.is_empty() || right_buckets.is_empty() {
                continue;
            }
            let shared: Vec<u64> = left_buckets
                .keys()
                .filter(|v| right_buckets.contains_key(v))
                .copied()
                .collect();
            if shared.is_empty() {
                continue;
            }
            let coverage = shared.len() as f64 / left_buckets.len().min(right_buckets.len()) as f64;
            // Strength: average pairs produced per shared value; a perfect
            // key yields exactly 1 left × 1 right record per value.
            let avg_bucket: f64 = shared
                .iter()
                .map(|v| (left_buckets[v] * right_buckets[v]) as f64)
                .sum::<f64>()
                / shared.len() as f64;
            let strength = 1.0 / avg_bucket;
            if coverage >= self.min_coverage && strength >= self.min_strength {
                points.push(LinkagePoint {
                    attr,
                    coverage,
                    strength,
                });
            }
        }
        points
    }
}

impl LinkageMethod for Smash {
    fn name(&self) -> &'static str {
        "SMaSh"
    }

    fn run(&self, task: &LinkageTask<'_>) -> Vec<LinkagePrediction> {
        let points = self.discover(task.left, task.right);
        let total_strength: f64 = points.iter().map(|p| p.strength).sum::<f64>().max(1e-12);
        task.candidates
            .iter()
            .map(|c| {
                let l = &task.left[c.left as usize];
                let r = &task.right[c.right as usize];
                let mut score = 0.0;
                for p in &points {
                    if let (Some(x), Some(y)) = (attr_value(l, p.attr), attr_value(r, p.attr)) {
                        if x == y {
                            score += p.strength;
                        }
                    }
                }
                let score = score / total_strength;
                LinkagePrediction {
                    left: c.left,
                    right: c.right,
                    score,
                    linked: score >= self.link_threshold,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::Fixture;
    use hydra_datagen::attributes::AttrKind;

    #[test]
    fn discovers_email_as_strong_linkage_point() {
        let fx = Fixture::new(80, 600);
        let points =
            Smash::default().discover(&fx.signals.per_platform[0], &fx.signals.per_platform[1]);
        assert!(!points.is_empty(), "no linkage points discovered");
        let email = points.iter().find(|p| p.attr == AttrKind::Email.index());
        assert!(email.is_some(), "email must be a linkage point: {points:?}");
        let email = email.unwrap();
        // Email buckets are singletons → strength ≈ 1.
        assert!(email.strength > 0.9, "email strength {}", email.strength);
        // Gender, if discovered, must be far weaker than email.
        if let Some(g) = points.iter().find(|p| p.attr == AttrKind::Gender.index()) {
            assert!(g.strength < email.strength / 2.0);
        }
    }

    #[test]
    fn smash_links_on_discovered_points() {
        let fx = Fixture::new(60, 601);
        let preds = Smash::default().run(&fx.task());
        assert_eq!(preds.len(), fx.candidates.len());
        let precision = fx.precision(&preds);
        assert!(precision > 0.2, "precision {precision}");
        // Scores normalized to [0, 1].
        assert!(preds.iter().all(|p| (0.0..=1.0 + 1e-9).contains(&p.score)));
    }

    #[test]
    fn username_key_normalizes_decorations() {
        assert_eq!(username_key("Adele.Wang"), username_key("adele_wang"));
        assert_eq!(username_key("ADELE88"), username_key("adele88"));
        assert_ne!(username_key("adele"), username_key("adela"));
    }

    #[test]
    fn no_shared_values_no_points() {
        let fx = Fixture::new(30, 602);
        let strict = Smash {
            min_coverage: 1.01, // impossible
            ..Default::default()
        };
        let points = strict.discover(&fx.signals.per_platform[0], &fx.signals.per_platform[1]);
        assert!(points.is_empty());
        // With no linkage points nothing gets linked.
        let preds = strict.run(&fx.task());
        assert!(preds.iter().all(|p| !p.linked));
    }
}
