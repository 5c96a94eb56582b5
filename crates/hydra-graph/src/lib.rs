//! Social-graph substrate for the HYDRA reproduction.
//!
//! The paper leans on per-platform social structure in three places:
//!
//! * the **core structure** — "the part formed by those closest to the
//!   user", operationally the most frequently interacting friends; Eq. 18
//!   fills missing features from the top-3 interacting friends
//!   ([`core_structure`]);
//! * the **n-hop distance** `d_ij = (k_ij + 1)²` where `k_ij` is the number
//!   of intermediate users on the shortest path from `i` to `j`, feeding the
//!   structure-consistency affinities of Eq. 9 ([`distance`]);
//! * **overlapping communities** (Figure 12 incrementally adds structure
//!   information from the "top five largest overlapping communities")
//!   ([`communities`]).
//!
//! Graphs are stored in CSR form with `f64` interaction weights; node ids
//! are dense `u32` handles assigned by the owner (the data generator maps
//! platform accounts onto them).

pub mod communities;
pub mod core_structure;
pub mod distance;
pub mod graph;

pub use communities::CommunitySet;
pub use core_structure::top_k_friends;
pub use distance::{hop_distance, k_hop_neighborhood, paper_distance};
pub use graph::{GraphBuilder, SocialGraph};
