//! Cross-box distributed serving: shard-per-**process** scatter-gather.
//!
//! The paper's deployment (a five-server testbed resolving identities over
//! a 10M-user population) serves linkage queries from multiple machines;
//! `hydra-core`'s [`ShardedEngine`](hydra_core::shard::ShardedEngine)
//! shards are still in-process threads, so one box caps the population.
//! This crate promotes the partition to N OS processes speaking a small
//! versioned, length-prefixed wire protocol over unix-domain or TCP
//! sockets — dependency-free (std sockets + the `bytes` shim), in the
//! `HYLM`/`HYSX` codec style, and pinned to the same invariant as every
//! other serving layer in the repo: **process-sharded == thread-sharded ==
//! single engine, bitwise**.
//!
//! ## Three layers
//!
//! * [`frame`] + [`message`] — the codec. Every frame is
//!   `magic "HYNF" | version | kind | payload length | payload FNV-1a |
//!   payload`, decoded through `hydra-core`'s checked
//!   [`Reader`](hydra_core::artifact::Reader) so every malformed byte surfaces
//!   a typed [`ModelIoError`] with byte offset and section — at every
//!   truncation prefix, never a panic
//!   (`tests/wire_faults.rs` mirrors the artifact-codec coverage).
//!   Messages cover the hello/fingerprint handshake, `QueryBatch`,
//!   `InsertBatch`, `Remove`, `AdoptEpoch` (epoch-lockstep assertion),
//!   `Quarantine`/`Recover`, and typed response frames with per-shard
//!   outcome.
//! * [`server`] — [`ShardServer`]: one process, one shard. Cold-starts by
//!   loading the [`ServingArtifact`](hydra_core::ingest::ServingArtifact)
//!   plus a [`PopulationArtifact`](population::PopulationArtifact)
//!   (the `HYPP` profile-corpus artifact this crate adds), builds a
//!   [`ShardReplica`](hydra_core::shard::ShardReplica), and answers one
//!   connection at a time. Query handling runs under per-query
//!   `catch_unwind`: a panicking replica poisons the server, which
//!   reports `Panicked` for the query that died and `Quarantined`
//!   after — exactly the PR 6 degraded-serving semantics, through a
//!   socket. `Recover` rebuilds the partition deterministically from the
//!   replica's snapshot + removal log. The [`hydra-shardd`](server) binary
//!   wraps this for process deployment.
//! * [`coordinator`] — [`DistributedEngine`]: connects to N shard
//!   servers, verifies the model config fingerprint against every peer at
//!   handshake, scatters queries, and gathers with **literally the same
//!   merge code** as the in-process engine
//!   ([`merge_scored_candidates`](hydra_core::shard::merge_scored_candidates)):
//!   per-shard contributions arrive pre-scored (kernel scores are
//!   per-pair, so where they were computed cannot matter), merge in
//!   candidate rank order, truncate to the global cap, and rank — bitwise
//!   the single-engine answer. A dead connection degrades the
//!   [`QueryOutcome`](hydra_core::shard::QueryOutcome) (the failed shard's
//!   partition is skipped, deterministically) instead of failing the
//!   query; mutations are sequence-numbered and idempotent, so a
//!   reconnecting shard is replayed the suffix it missed and returns
//!   bitwise to the never-faulted state.
//!
//! ## Fault injection
//!
//! The coordinator threads `hydra-fault` sites through every socket
//! operation — `net.connect.{s}`, `net.write.{s}`, `net.read.{s}`
//! (per-shard, so hit counters stay deterministic) — and the server
//! exposes `net.serve.{s}` on the query path. Injected
//! [`Transient`](hydra_fault::FaultKind::Transient) faults are retried
//! under the same bounded deterministic
//! [`RetryPolicy`](hydra_core::shard::RetryPolicy) schedule the ingest
//! layer uses; hard faults mark the shard down and degrade. The
//! `net_fault_sweeps` test enumerates every site × kind and pins that
//! healthy shards keep serving and recovery is bitwise.

// Serving-path discipline (same gate as hydra-core's serving modules): a
// stray unwrap/expect in protocol or server code tears down a shard
// process — recoverable conditions must surface as typed errors.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod codec;
pub mod coordinator;
pub mod frame;
pub mod message;
pub mod population;
pub mod server;

pub use coordinator::{DistributedEngine, Endpoint};
pub use frame::Frame;
pub use message::{Message, MutOutcome, QueryReply, Refusal, StatusInfo};
pub use population::PopulationArtifact;
pub use server::{ServeEnd, ShardServer};

use hydra_core::engine::EngineError;
use hydra_core::ModelIoError;

/// Everything that can go wrong on the wire — socket-level IO, typed
/// decode failures (the artifact-codec diagnostics, reused), handshake
/// refusals, and serving-layer errors relayed from a shard.
#[derive(Debug)]
pub enum NetError {
    /// Socket-level IO failure (including injected faults at the
    /// `net.connect/write/read.{s}` sites).
    Io(std::io::Error),
    /// Frame or payload decode failure — byte offset + section
    /// diagnostics, exactly like artifact loading.
    Decode(ModelIoError),
    /// The peer serves a model whose config fingerprint differs from the
    /// coordinator's — the same gate `swap_artifact` enforces in-process.
    FingerprintMismatch {
        /// Fingerprint this side requires.
        expected: u64,
        /// Fingerprint the peer reported.
        found: u64,
    },
    /// The peer's partition coordinates disagree with the coordinator's
    /// topology (`(shard, num_shards)`).
    TopologyMismatch {
        /// Coordinates this side expected.
        expected: (u32, u32),
        /// Coordinates the peer reported.
        found: (u32, u32),
    },
    /// A response frame of the wrong kind for the request sent.
    UnexpectedFrame {
        /// What the protocol step expected.
        expected: &'static str,
        /// The frame kind that arrived.
        found: u8,
    },
    /// The shard rejected the request with a serving-layer error (the
    /// exact [`EngineError`] the in-process path would return).
    Refused(EngineError),
    /// A strict query required every shard, but some were down or
    /// quarantined (use the `*_outcome` APIs for degraded service).
    Degraded {
        /// The shards that did not answer, ascending.
        failed: Vec<usize>,
    },
    /// The peer's applied mutation sequence has a gap the coordinator
    /// must replay before this operation can apply.
    SeqGap {
        /// The next sequence number the peer will accept.
        expected: u64,
        /// The sequence number that was offered.
        found: u64,
    },
    /// The peer violated the protocol (malformed refusal, wrong reply
    /// shape, peers out of sync) — a configuration or logic error, never
    /// degradation.
    Protocol(String),
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "socket io failure: {e}"),
            NetError::Decode(e) => write!(f, "wire decode failure: {e}"),
            NetError::FingerprintMismatch { expected, found } => write!(
                f,
                "model fingerprint mismatch: coordinator serves {expected:#018x}, peer serves {found:#018x}"
            ),
            NetError::TopologyMismatch { expected, found } => write!(
                f,
                "partition topology mismatch: expected shard {}/{}, peer is shard {}/{}",
                expected.0, expected.1, found.0, found.1
            ),
            NetError::UnexpectedFrame { expected, found } => {
                write!(f, "expected {expected} frame, got kind {found}")
            }
            NetError::Refused(e) => write!(f, "shard refused: {e}"),
            NetError::Degraded { failed } => {
                write!(f, "strict query degraded: shards {failed:?} did not answer")
            }
            NetError::SeqGap { expected, found } => write!(
                f,
                "mutation sequence gap: peer expects seq {expected}, got {found}"
            ),
            NetError::Protocol(what) => write!(f, "protocol violation: {what}"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        NetError::Io(e)
    }
}

impl From<ModelIoError> for NetError {
    fn from(e: ModelIoError) -> Self {
        NetError::Decode(e)
    }
}

impl From<EngineError> for NetError {
    fn from(e: EngineError) -> Self {
        NetError::Refused(e)
    }
}
