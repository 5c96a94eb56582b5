//! The shard server: one process, one partition of the population.
//!
//! A [`ShardServer`] wraps a [`ShardReplica`] behind the wire protocol.
//! Its core is the pure [`ShardServer::handle`] dispatch — one request
//! message in, one response message out, no sockets involved — which the
//! [`ShardServer::serve`] loop drives from any `Read + Write` stream and
//! the `hydra-shardd` binary exposes over unix-domain or TCP listeners.
//! Keeping dispatch pure makes every protocol decision unit-testable
//! without a socket in sight.
//!
//! Degraded serving mirrors the in-process engine: each query runs under
//! `catch_unwind`, a panic poisons the replica (the query that died
//! answers `Panicked`, later ones `Quarantined`) while **mutations still
//! apply** — a poisoned replica keeps adopting epochs, exactly like a
//! quarantined in-process shard — and `Recover` rebuilds the partition
//! index deterministically from the snapshot + removal log.
//!
//! Mutations are idempotent under a sequence-number protocol: `seq` at or
//! below the applied watermark acks `AlreadyApplied` (replay after a lost
//! response), `seq` exactly one past it applies, anything further refuses
//! with `SeqGap` so the coordinator replays the suffix. Deterministic
//! rejections *consume* the sequence number (a replay re-errs
//! identically); transient failures do not (nothing was applied, the same
//! `seq` retries).

use crate::coordinator::Endpoint;
use crate::frame::Frame;
use crate::message::{kind, Message, MutOutcome, QueryReply, Refusal, StatusInfo};
use crate::population::PopulationArtifact;
use crate::NetError;
use hydra_core::engine::EngineError;
use hydra_core::ingest::ServingArtifact;
use hydra_core::shard::ShardReplica;
use std::io::{Read, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;

/// Why a [`ShardServer::serve`] loop ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeEnd {
    /// The peer disconnected (cleanly or mid-frame); accept the next one.
    Disconnected,
    /// The peer sent `Shutdown`; exit the process.
    Shutdown,
}

/// One shard's serving process: a partition replica plus the protocol
/// state (model fingerprint, applied-mutation watermark, poison flag).
pub struct ShardServer {
    replica: ShardReplica,
    fingerprint: u64,
    applied_seq: u64,
    /// The outcome of the most recently consumed mutation, replayed
    /// verbatim when the coordinator re-sends that seq (it re-sends
    /// after a connection drop even if dial-replay already delivered
    /// the op — this cache is what lets the re-send still learn the
    /// assigned bases). A size-1 dedup cache suffices because the
    /// coordinator serializes mutations.
    last_outcome: Option<(u64, MutOutcome)>,
    poisoned: bool,
}

impl ShardServer {
    /// Wrap an already-built replica (`fingerprint` is the model config
    /// fingerprint handshakes are checked against).
    pub fn new(replica: ShardReplica, fingerprint: u64) -> Self {
        ShardServer {
            replica,
            fingerprint,
            applied_seq: 0,
            last_outcome: None,
            poisoned: false,
        }
    }

    /// Cold-start shard `shard` of `num_shards` from two files: the
    /// serving artifact (model + extraction state, `HYSA`) and the
    /// population artifact (profiles + graphs, `HYPP` — the full corpus
    /// or this shard's slice). Refuses a population whose extractor
    /// fingerprint differs from the serving artifact's — signals
    /// extracted by a different pipeline cannot be served by this model
    /// — and a slice cut for different partition coordinates (a shard
    /// serving another shard's slice would silently drop candidates).
    pub fn from_artifacts(
        artifact: &Path,
        population: &Path,
        shard: usize,
        num_shards: usize,
    ) -> Result<Self, NetError> {
        let serving = ServingArtifact::load(artifact)?;
        let mut pop = PopulationArtifact::load(population)?;
        let expected = serving.extractor.fingerprint();
        if pop.extractor_fingerprint != expected {
            return Err(NetError::FingerprintMismatch {
                expected,
                found: pop.extractor_fingerprint,
            });
        }
        if pop.is_sliced() && (pop.shard, pop.num_shards) != (shard as u32, num_shards as u32) {
            return Err(NetError::TopologyMismatch {
                expected: (shard as u32, num_shards as u32),
                found: (pop.shard, pop.num_shards),
            });
        }
        let fingerprint = serving.model.fingerprint();
        // The username columns — not the (possibly sliced) signal store —
        // carry the global blocking vocabulary.
        let usernames = std::mem::take(&mut pop.usernames);
        let (signals, graphs) = pop.into_signals(serving.extractor.lda().clone());
        let replica = ShardReplica::with_usernames(
            serving.model,
            &signals,
            graphs,
            usernames,
            shard,
            num_shards,
        )?;
        Ok(ShardServer::new(replica, fingerprint))
    }

    /// The wrapped replica (read access for assertions and benches).
    pub fn replica(&self) -> &ShardReplica {
        &self.replica
    }

    /// The server's current self-description.
    pub fn status(&self) -> StatusInfo {
        StatusInfo {
            shard: self.replica.shard() as u32,
            num_shards: self.replica.num_shards() as u32,
            fingerprint: self.fingerprint,
            epoch: self.replica.epoch(),
            applied_seq: self.applied_seq,
            poisoned: self.poisoned,
        }
    }

    /// Gate a sequence-numbered mutation: `Ok(None)` apply now,
    /// `Ok(Some(reply))` already consumed (idempotent replay ack — the
    /// cached outcome verbatim for the latest seq, a bare
    /// `AlreadyApplied` for older ones), `Err` sequence gap the
    /// coordinator must replay across.
    fn seq_gate(&self, seq: u64) -> Result<Option<Message>, Refusal> {
        if seq <= self.applied_seq {
            if let Some((s, outcome)) = &self.last_outcome {
                if *s == seq {
                    return Ok(Some(Message::MutResp(outcome.clone())));
                }
            }
            return Ok(Some(Message::MutResp(MutOutcome::AlreadyApplied)));
        }
        if seq != self.applied_seq + 1 {
            return Err(Refusal::SeqGap {
                expected: self.applied_seq + 1,
                found: seq,
            });
        }
        Ok(None)
    }

    /// Fold one mutation result into protocol state: deterministic
    /// outcomes (success *and* validation errors) consume the sequence
    /// number — a replay acks `AlreadyApplied` / re-errs identically —
    /// while a transient leaves the watermark alone so the same `seq`
    /// retries against unchanged state.
    fn finish_mutation(&mut self, seq: u64, result: Result<Vec<u32>, EngineError>) -> Message {
        let outcome = match result {
            Ok(bases) => MutOutcome::Applied { bases },
            Err(e @ EngineError::Transient { .. }) => {
                return Message::MutResp(MutOutcome::Rejected(e))
            }
            Err(e) => MutOutcome::Rejected(e),
        };
        self.applied_seq = seq;
        self.last_outcome = Some((seq, outcome.clone()));
        Message::MutResp(outcome)
    }

    /// Answer one query batch with per-left panic isolation. The whole
    /// batch is validated before any scoring (matching
    /// [`hydra_core::shard::ShardedEngine::query_batch_outcome`]); then
    /// each left either answers, panics (poisoning the replica — that
    /// left reports `Panicked`), or is skipped as `Quarantined` when the
    /// replica is already poisoned. The `net.serve.{shard}` injection
    /// site fires once per scored left; any armed kind manifests as a
    /// panic here — this is the isolation path under test.
    fn handle_query(&mut self, task: u64, lefts: &[u32]) -> Message {
        let task = task as usize;
        for &left in lefts {
            if let Err(e) = self.replica.validate_query(task, left) {
                return Message::QueryResp(Err(e));
            }
        }
        let site = format!("net.serve.{}", self.replica.shard());
        let mut replies = Vec::with_capacity(lefts.len());
        for &left in lefts {
            if self.poisoned {
                replies.push(QueryReply::Quarantined);
                continue;
            }
            let per_left = hydra_obs::span("net.serve.query");
            let replica = &self.replica;
            let result = catch_unwind(AssertUnwindSafe(|| {
                if hydra_fault::enabled() && hydra_fault::fire(&site).is_some() {
                    panic!("injected fault in shard server {}", replica.shard());
                }
                replica.query_partition(task, left)
            }));
            drop(per_left);
            replies.push(match result {
                Ok(Ok(contribution)) => QueryReply::Answer(contribution),
                // Validated above, so an error here is a mid-batch state
                // change — report it like the panic it morally is.
                Ok(Err(e)) => {
                    self.poisoned = true;
                    QueryReply::Panicked(format!("query failed after validation: {e}"))
                }
                Err(panic) => {
                    self.poisoned = true;
                    QueryReply::Panicked(panic_message(panic))
                }
            });
        }
        Message::QueryResp(Ok(replies))
    }

    /// Pure protocol dispatch: one request in, one response out. All
    /// state transitions (handshake checks, sequence watermark, poison
    /// flag, mutations) happen here; sockets never do.
    pub fn handle(&mut self, msg: Message) -> Message {
        // Per-request serve histogram + counter: every dispatched request
        // lands in `net.request`, query batches additionally fill
        // `net.serve.query_batch` and per-left `net.serve.query`.
        let _request = hydra_obs::span("net.request");
        hydra_obs::counter_add("net.requests", 1);
        match msg {
            Message::Hello {
                fingerprint,
                shard,
                num_shards,
            } => {
                if fingerprint != self.fingerprint {
                    return Message::Refuse(Refusal::Fingerprint {
                        expected: fingerprint,
                        found: self.fingerprint,
                    });
                }
                let here = (
                    self.replica.shard() as u32,
                    self.replica.num_shards() as u32,
                );
                if (shard, num_shards) != here {
                    return Message::Refuse(Refusal::Topology {
                        expected: (shard, num_shards),
                        found: here,
                    });
                }
                Message::HelloAck(self.status())
            }
            Message::QueryBatch { task, lefts } => {
                let _batch = hydra_obs::span("net.serve.query_batch");
                self.handle_query(task, &lefts)
            }
            Message::InsertBatch {
                seq,
                platform,
                accounts,
            } => match self.seq_gate(seq) {
                Err(refusal) => Message::Refuse(refusal),
                Ok(Some(reply)) => reply,
                Ok(None) => {
                    let result = self
                        .replica
                        .insert_batch_with_edges(platform as usize, accounts);
                    self.finish_mutation(seq, result)
                }
            },
            Message::Remove {
                seq,
                platform,
                account,
            } => match self.seq_gate(seq) {
                Err(refusal) => Message::Refuse(refusal),
                Ok(Some(reply)) => reply,
                Ok(None) => {
                    let result = self
                        .replica
                        .remove_account(platform as usize, account)
                        .map(|()| Vec::new());
                    self.finish_mutation(seq, result)
                }
            },
            Message::AdoptEpoch { epoch } => {
                let here = self.replica.epoch();
                if here == epoch {
                    Message::Ok
                } else {
                    Message::Refuse(Refusal::Other(format!(
                        "epoch drift: replica at {here}, coordinator asserts {epoch}"
                    )))
                }
            }
            Message::Status => Message::StatusResp {
                info: self.status(),
                // Attach this process's metrics snapshot when collection
                // is on (hydra-shardd enables it unless HYDRA_OBS=0) — the
                // coordinator merges these into the fleet-wide view.
                metrics: hydra_obs::enabled().then(hydra_obs::snapshot),
            },
            Message::Quarantine => {
                self.poisoned = true;
                Message::Ok
            }
            Message::Recover => match self.replica.rebuild() {
                Ok(()) => {
                    self.poisoned = false;
                    Message::Ok
                }
                Err(e) => Message::Refuse(Refusal::Other(format!("rebuild failed: {e}"))),
            },
            Message::Shutdown => Message::Ok,
            other => Message::Refuse(Refusal::Other(format!(
                "unexpected frame kind {} in request position",
                other.kind()
            ))),
        }
    }

    /// Drive the dispatch loop over one connection until the peer
    /// disconnects or sends `Shutdown`. Malformed frames are answered
    /// with a `Refuse` naming the decode error, then the connection is
    /// dropped (the stream may be desynchronized past a bad frame).
    pub fn serve<S: Read + Write>(&mut self, stream: &mut S) -> Result<ServeEnd, NetError> {
        loop {
            let frame = match Frame::read_from(stream) {
                Ok(frame) => frame,
                // EOF between frames is the peer hanging up cleanly, EOF
                // mid-frame a torn connection: a hang-up either way.
                Err(NetError::Decode(hydra_core::ModelIoError::Truncated { .. })) => {
                    return Ok(ServeEnd::Disconnected)
                }
                Err(NetError::Decode(e)) => {
                    // Garbage on the wire: refuse with the typed decode
                    // error, then drop the desynchronized connection.
                    let refuse = Message::Refuse(Refusal::Other(format!("bad frame: {e}")));
                    refuse.encode().write_to(stream).ok();
                    return Ok(ServeEnd::Disconnected);
                }
                // A connection-level read error (reset, aborted) is a
                // hang-up, not a server failure.
                Err(NetError::Io(_)) => return Ok(ServeEnd::Disconnected),
                Err(e) => return Err(e),
            };
            let msg = match Message::decode(&frame) {
                Ok(msg) => msg,
                Err(e) => {
                    let refuse = Message::Refuse(Refusal::Other(format!("bad message: {e}")));
                    refuse.encode().write_to(stream).ok();
                    return Ok(ServeEnd::Disconnected);
                }
            };
            let is_shutdown = frame.kind == kind::SHUTDOWN;
            let reply = self.handle(msg);
            // The peer may hang up without waiting for the reply — a
            // coordinator retry does exactly this after a failed read.
            // Losing the response is the lost-ack case the sequence
            // protocol covers; drop the connection, keep the listener.
            if reply.encode().write_to(stream).is_err() {
                return Ok(if is_shutdown {
                    ServeEnd::Shutdown
                } else {
                    ServeEnd::Disconnected
                });
            }
            if is_shutdown {
                return Ok(ServeEnd::Shutdown);
            }
        }
    }

    /// Bind `endpoint` and serve connections **one at a time** (the
    /// coordinator is the only client; reconnection is just the next
    /// accept) until a peer sends `Shutdown`. Calls `on_ready` with the
    /// bound endpoint once listening — the `hydra-shardd` binary prints
    /// its `READY` line there, tests use it to learn ephemeral TCP ports.
    pub fn run(
        &mut self,
        endpoint: &Endpoint,
        on_ready: impl FnOnce(&Endpoint),
    ) -> Result<(), NetError> {
        match endpoint {
            Endpoint::Unix(path) => {
                // A stale socket file from a previous run blocks bind.
                if path.exists() {
                    std::fs::remove_file(path)?;
                }
                let listener = std::os::unix::net::UnixListener::bind(path)?;
                on_ready(endpoint);
                self.serve_until_shutdown(|| listener.accept().map(|(stream, _)| stream))?;
                std::fs::remove_file(path).ok();
                Ok(())
            }
            Endpoint::Tcp(addr) => {
                let listener = std::net::TcpListener::bind(addr.as_str())?;
                on_ready(&Endpoint::Tcp(listener.local_addr()?.to_string()));
                self.serve_until_shutdown(|| listener.accept().map(|(stream, _)| stream))
            }
        }
    }

    /// Accept and serve one connection after another until a peer sends
    /// `Shutdown`.
    fn serve_until_shutdown<S: Read + Write>(
        &mut self,
        mut accept: impl FnMut() -> std::io::Result<S>,
    ) -> Result<(), NetError> {
        loop {
            let mut stream = accept()?;
            if self.serve(&mut stream)? == ServeEnd::Shutdown {
                return Ok(());
            }
        }
    }
}

/// Render a caught panic payload (the standard `&str` / `String` cases,
/// with a stable fallback) — deterministic for a fixed fault plan.
fn panic_message(panic: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic".to_string()
    }
}
