//! Synthetic multi-platform social data generator.
//!
//! The paper evaluates on a proprietary corpus: 5M users with accounts on
//! five Chinese platforms plus 5M users on Twitter and Facebook, ground
//! truth from national-ID-backed registration data (Section 7.1). None of
//! that is available, so this crate generates the closest controllable
//! equivalent:
//!
//! 1. **Natural persons** with latent, person-stable signals: profile
//!    attributes, topic/genre/sentiment preferences, a personal vocabulary
//!    signature, a face embedding, a home location with trips, an activity
//!    level, and a community-structured friendship graph.
//! 2. **Platform projections** that distort those signals exactly along the
//!    paper's challenge axes (Section 1.1): unreliable usernames (per-
//!    platform mangling styles, CJK decorations), missing information
//!    (per-attribute drop rates calibrated to Figure 2a), information
//!    veracity (deceptive attribute values), platform difference (25–85%
//!    content divergence), behavior asynchrony (per-account temporal
//!    shifts), and data imbalance (per-platform activity scaling).
//!
//! Ground truth is the person id behind every account — playing the role of
//! the data provider's national-ID linkage.

pub mod attributes;
pub mod dataset;
pub mod events;
pub mod graph_gen;
pub mod names;
pub mod person;
pub mod platform;
pub mod words;

pub use attributes::{AttrKind, NUM_ATTRS, PROFILE_ATTRS};
pub use dataset::{Account, Dataset, DatasetConfig, PlatformData};
pub use person::NaturalPerson;
pub use platform::{Language, PlatformSpec};

/// Dense person handle (index into [`Dataset::persons`]).
pub type PersonIdx = u32;
