//! The data-source abstraction behind signal extraction and training.
//!
//! HYDRA's deployment story (Section 3 / Figure 3) is train-once, serve
//! per-account queries — which means the pipeline cannot be welded to the
//! synthetic [`hydra_datagen::Dataset`] concrete type. [`AccountSource`]
//! is the narrow read interface the pipeline actually needs: per-platform
//! account payloads (username, attributes, posts, sensor streams) by
//! platform-local index, the platform social graphs Eq. 18 filling and
//! Eq. 14 structure consistency consume, and the corpus-wide vocabulary
//! style modeling requires.
//!
//! [`Signals::extract`](crate::signals::Signals::extract) and
//! [`crate::Hydra::fit`] are generic over this trait; `Dataset` is just one
//! implementation (provided here), so a production ingest layer — a
//! database snapshot, a stream materialization — plugs in by implementing
//! the same six accessors. Everything downstream of extraction
//! ([`crate::candidates`], [`crate::features`], [`crate::missing`],
//! [`crate::engine`]) operates on extracted
//! [`UserSignals`](crate::signals::UserSignals) slices and [`SocialGraph`]s
//! and is therefore source-agnostic by construction.

use hydra_datagen::attributes::AttrValues;
use hydra_datagen::events::Post;
use hydra_datagen::Dataset;
use hydra_graph::SocialGraph;
use hydra_temporal::{GeoPoint, MediaItem, Timeline};
use hydra_text::Vocabulary;
use hydra_vision::ProfileImage;

/// Borrowed view of one platform account's raw payload — everything signal
/// extraction reads.
#[derive(Debug, Clone, Copy)]
pub struct AccountView<'a> {
    /// Ground-truth person id where known (labeling/evaluation only — the
    /// model never consumes it as a feature). Sources without ground truth
    /// should echo the platform-local account index.
    pub person: u32,
    /// Platform username.
    pub username: &'a str,
    /// Profile attributes (missing values are `None`).
    pub attrs: &'a AttrValues,
    /// Profile image, if any.
    pub image: Option<&'a ProfileImage>,
    /// Textual messages.
    pub posts: &'a Timeline<Post>,
    /// Location check-ins.
    pub checkins: &'a Timeline<GeoPoint>,
    /// Media shares.
    pub media: &'a Timeline<MediaItem>,
}

/// Read access to a multi-platform account corpus.
///
/// Account indices are platform-local and dense: platform `p` holds
/// accounts `0..num_accounts(p)`.
pub trait AccountSource {
    /// Number of platforms.
    fn num_platforms(&self) -> usize;

    /// Number of accounts on platform `platform`.
    fn num_accounts(&self, platform: usize) -> usize;

    /// Payload view of account `account` on platform `platform`.
    fn account(&self, platform: usize, account: u32) -> AccountView<'_>;

    /// The platform's social interaction graph over its account indices.
    fn graph(&self, platform: usize) -> &SocialGraph;

    /// Corpus-wide vocabulary with term statistics (style modeling needs
    /// "the whole user data repository").
    fn vocab(&self) -> &Vocabulary;

    /// Number of content genres platforms assign to posts.
    fn num_genres(&self) -> usize;

    /// Observation window length in days.
    fn window_days(&self) -> u32;
}

impl AccountSource for Dataset {
    fn num_platforms(&self) -> usize {
        self.platforms.len()
    }

    fn num_accounts(&self, platform: usize) -> usize {
        self.platforms[platform].accounts.len()
    }

    fn account(&self, platform: usize, account: u32) -> AccountView<'_> {
        let a = &self.platforms[platform].accounts[account as usize];
        AccountView {
            person: a.person,
            username: &a.username,
            attrs: &a.attrs,
            image: a.image.as_ref(),
            posts: &a.posts,
            checkins: &a.checkins,
            media: &a.media,
        }
    }

    fn graph(&self, platform: usize) -> &SocialGraph {
        &self.platforms[platform].graph
    }

    fn vocab(&self) -> &Vocabulary {
        &self.vocab
    }

    fn num_genres(&self) -> usize {
        self.config.num_genres
    }

    fn window_days(&self) -> u32 {
        self.config.window_days
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hydra_datagen::DatasetConfig;

    #[test]
    fn dataset_view_mirrors_accounts() {
        let d = Dataset::generate(DatasetConfig::english(12, 3));
        assert_eq!(AccountSource::num_platforms(&d), d.num_platforms());
        for p in 0..d.num_platforms() {
            assert_eq!(d.num_accounts(p), d.platforms[p].accounts.len());
            for a in 0..d.num_accounts(p) as u32 {
                let view = AccountSource::account(&d, p, a);
                let raw = &d.platforms[p].accounts[a as usize];
                assert_eq!(view.username, raw.username);
                assert_eq!(view.person, raw.person);
                assert_eq!(view.posts.len(), raw.posts.len());
            }
            assert_eq!(
                AccountSource::graph(&d, p).num_nodes(),
                d.platforms[p].graph.num_nodes()
            );
        }
        assert_eq!(d.num_genres(), d.config.num_genres);
        assert_eq!(AccountSource::window_days(&d), d.config.window_days);
    }
}
