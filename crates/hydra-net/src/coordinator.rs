//! The scatter-gather coordinator: a [`DistributedEngine`] fronting N
//! shard-server processes.
//!
//! Queries scatter to every shard **pipelined** — the batch frame goes
//! out on every socket before any reply is read, so per-shard compute
//! overlaps and the gather waits on the slowest shard rather than the
//! sum — and contributions arrive **pre-scored** (kernel scores are
//! per-pair, so where they were computed cannot matter), gathered in
//! shard order through [`merge_scored_candidates`] — literally the same
//! merge the in-process [`ShardedEngine`](hydra_core::shard::ShardedEngine)
//! runs, which is what makes "process-sharded == thread-sharded ==
//! single, bitwise" a code-sharing fact. A shard that cannot answer (dead connection, dial
//! retries exhausted, server-side panic) degrades the
//! [`QueryOutcome`] exactly like an in-process quarantined shard:
//! healthy partitions keep serving, the failure is reported per shard,
//! and the degraded result is deterministic for a fixed fault plan.
//!
//! Mutations broadcast to every shard in index order under a
//! sequence-number protocol (see [`crate::server`]): the coordinator
//! keeps an oplog, and a reconnecting shard is replayed exactly the
//! suffix it missed during the dial handshake — after which its answers
//! are bitwise those of a shard that never went away.
//!
//! Every socket operation threads a `hydra-fault` site —
//! `net.connect.{s}`, `net.write.{s}`, `net.read.{s}`, named per shard
//! so hit counters stay deterministic. Injected
//! [`Transient`](hydra_fault::FaultKind::Transient) faults surface as
//! retryable IO errors and are retried under the same bounded
//! deterministic [`RetryPolicy`] schedule the ingest layer uses; every
//! other injected kind is a hard connection failure (the coordinator
//! never panics on behalf of a fault plan). The pipelined scatter keeps
//! those hit counts identical to a sequential scatter: the write phase
//! runs each shard's retry schedule only as far as the write, and a
//! gather-phase failure *resumes* that schedule rather than starting a
//! fresh one. Oplog replay inside the dial handshake deliberately
//! bypasses the write/read sites: replay length depends on how many
//! faults already fired, and injecting into it would make site hit
//! counts schedule-dependent. Dialing — connect, handshake, replay — is
//! bounded by a configurable budget
//! ([`DistributedEngine::set_dial_timeout`], default 5 s) so a peer
//! that wedged after the kernel accepted the connection degrades like a
//! dead shard instead of hanging the scatter.

use crate::frame::Frame;
use crate::message::{Message, MutOutcome, QueryReply, Refusal, StatusInfo};
use crate::NetError;
use hydra_core::artifact::LinkageModel;
use hydra_core::engine::EngineError;
use hydra_core::model::LinkagePrediction;
use hydra_core::shard::{
    merge_scored_candidates, HealthCounters, QueryOutcome, RetryPolicy, ScoredCandidate,
    ShardFailure,
};
use hydra_core::signals::UserSignals;
use hydra_obs::MetricsSnapshot;
use std::io::{Read, Write};
use std::path::PathBuf;
use std::time::Duration;

/// A duplex byte stream a shard connection runs over: socket IO plus
/// the ability to bound how long a single read/write may block — the
/// hook the coordinator's dial budget hangs off (a peer whose accept
/// loop wedged after the kernel completed the TCP handshake would
/// otherwise hang the dial, and with it the whole scatter, forever).
pub trait Conn: Read + Write + Send {
    /// Bound every subsequent read and write to `timeout` (`None` =
    /// block forever, the default state of a fresh connection).
    fn set_io_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()>;
}

impl Conn for std::os::unix::net::UnixStream {
    fn set_io_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        self.set_read_timeout(timeout)?;
        self.set_write_timeout(timeout)
    }
}

impl Conn for std::net::TcpStream {
    fn set_io_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        self.set_read_timeout(timeout)?;
        self.set_write_timeout(timeout)
    }
}

/// Where a shard server listens.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    /// Unix-domain socket at this path (same-box deployment).
    Unix(PathBuf),
    /// TCP address, `host:port` (cross-box deployment).
    Tcp(String),
}

impl Endpoint {
    /// Parse `unix:<path>` or `tcp:<host>:<port>`.
    pub fn parse(s: &str) -> Result<Endpoint, String> {
        if let Some(path) = s.strip_prefix("unix:") {
            if path.is_empty() {
                return Err("unix endpoint needs a path: unix:<path>".into());
            }
            Ok(Endpoint::Unix(PathBuf::from(path)))
        } else if let Some(addr) = s.strip_prefix("tcp:") {
            if addr.is_empty() {
                return Err("tcp endpoint needs an address: tcp:<host>:<port>".into());
            }
            Ok(Endpoint::Tcp(addr.to_string()))
        } else {
            Err(format!(
                "unknown endpoint scheme in {s:?} (expected unix:<path> or tcp:<host>:<port>)"
            ))
        }
    }

    /// Open a connection to this endpoint (no connect bound).
    pub fn connect(&self) -> std::io::Result<Box<dyn Conn>> {
        self.connect_timeout(None)
    }

    /// Open a connection, bounding the TCP connect itself to `timeout`
    /// (tried per resolved address, first success wins). Unix-domain
    /// connects are local kernel operations and cannot hang — the
    /// hung-peer case there is a wedged *accept* loop, which the dial
    /// budget's IO timeout covers after connecting.
    fn connect_timeout(&self, timeout: Option<Duration>) -> std::io::Result<Box<dyn Conn>> {
        match self {
            Endpoint::Unix(path) => Ok(Box::new(std::os::unix::net::UnixStream::connect(path)?)),
            Endpoint::Tcp(addr) => match timeout {
                None => Ok(Box::new(std::net::TcpStream::connect(addr.as_str())?)),
                Some(t) => {
                    use std::net::ToSocketAddrs;
                    let mut last: Option<std::io::Error> = None;
                    for resolved in addr.as_str().to_socket_addrs()? {
                        match std::net::TcpStream::connect_timeout(&resolved, t) {
                            Ok(stream) => return Ok(Box::new(stream)),
                            Err(e) => last = Some(e),
                        }
                    }
                    Err(last.unwrap_or_else(|| {
                        std::io::Error::new(
                            std::io::ErrorKind::NotFound,
                            format!("{addr}: no addresses resolved"),
                        )
                    }))
                }
            },
        }
    }
}

impl std::fmt::Display for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Endpoint::Unix(path) => write!(f, "unix:{}", path.display()),
            Endpoint::Tcp(addr) => write!(f, "tcp:{addr}"),
        }
    }
}

/// Fire the fault-injection site for one socket operation: an armed
/// `Transient` becomes a retryable timeout, any other armed kind a hard
/// connection error. (A `Panic` kind at a *client* site is deliberately
/// mapped to a hard failure — these sites model the transport, and the
/// coordinator must never panic on behalf of a fault plan; real panics
/// are the server sites' job.)
fn inject_io(site: &str) -> std::io::Result<()> {
    if hydra_fault::enabled() {
        match hydra_fault::fire(site) {
            Some(hydra_fault::FaultKind::Transient) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::TimedOut,
                    format!("injected transient at {site}"),
                ))
            }
            Some(_) => {
                return Err(std::io::Error::other(format!("injected fault at {site}")));
            }
            None => {}
        }
    }
    Ok(())
}

/// IO error kinds worth retrying: timeouts and connection churn (a
/// restarting server races its listener bind, so refused/missing are
/// transient too).
fn retryable_io(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::TimedOut
            | std::io::ErrorKind::ConnectionRefused
            | std::io::ErrorKind::ConnectionReset
            | std::io::ErrorKind::ConnectionAborted
            | std::io::ErrorKind::BrokenPipe
            | std::io::ErrorKind::NotFound
            | std::io::ErrorKind::WouldBlock
            | std::io::ErrorKind::Interrupted
            | std::io::ErrorKind::UnexpectedEof
    )
}

/// Whether a failed request is worth a retry on a fresh connection: \
/// retryable IO, a reply torn mid-frame (the server died or dropped the
/// connection while writing), or a sequence gap (fixed by the replay a
/// re-dial performs).
fn retryable(e: &NetError) -> bool {
    match e {
        NetError::Io(io) => retryable_io(io),
        NetError::Decode(hydra_core::ModelIoError::Truncated { .. }) => true,
        NetError::SeqGap { .. } => true,
        _ => false,
    }
}

fn read_message(stream: &mut dyn Conn) -> Result<Message, NetError> {
    let frame = Frame::read_from(stream)?;
    Ok(Message::decode(&frame)?)
}

/// The error for a reply of the wrong kind at a protocol step.
fn unexpected(expected: &'static str, found: &Message) -> NetError {
    NetError::UnexpectedFrame {
        expected,
        found: found.kind(),
    }
}

/// Shard `s` must have acked with `Ok`; a refusal is a protocol error
/// naming the shard.
fn expect_ok(s: usize, reply: Message) -> Result<(), NetError> {
    match reply {
        Message::Ok => Ok(()),
        Message::Refuse(r) => Err(NetError::Protocol(format!("shard {s}: {r:?}"))),
        other => Err(unexpected("Ok", &other)),
    }
}

/// The fleet's published epoch as the coordinator has observed it. Every
/// replica consumes the oplog in order and answers each op alike, so the
/// first answer to a seq — to the broadcast or to a dial-replay — decides
/// whether that op published an epoch (an applied insert batch publishes
/// one, exactly like the in-process snapshot epoch); later answers to the
/// same seq change nothing. An op whose broadcast reached no shard is
/// therefore counted when replay delivers it, not when it was issued.
#[derive(Debug, Clone, Copy, Default)]
struct EpochClock {
    /// The epoch of a replica that has consumed the log up to `settled_seq`.
    epoch: u64,
    /// Highest seq whose outcome is counted into `epoch`.
    settled_seq: u64,
}

impl EpochClock {
    /// A shard's self-report. One that has consumed further than anything
    /// observed so far applied ops whose acks were lost; adopt it.
    fn adopt(&mut self, st: &StatusInfo) {
        if st.applied_seq > self.settled_seq {
            *self = EpochClock {
                epoch: st.epoch,
                settled_seq: st.applied_seq,
            };
        }
    }

    /// One shard's answer to the logged mutation `op` carrying `seq`.
    fn observe(&mut self, seq: u64, op: &Message, outcome: &MutOutcome) {
        let published = match outcome {
            MutOutcome::Applied { .. } => matches!(op, Message::InsertBatch { .. }),
            // A transient consumed nothing, and `AlreadyApplied` does not
            // say how the seq was consumed.
            MutOutcome::Rejected(EngineError::Transient { .. }) | MutOutcome::AlreadyApplied => {
                return
            }
            MutOutcome::Rejected(_) => false,
        };
        if seq > self.settled_seq {
            self.settled_seq = seq;
            self.epoch += u64::from(published);
        }
    }
}

/// The coordinator: scatter-gather serving over N shard-server
/// processes, presenting the same query/mutation surface as the
/// in-process engines.
pub struct DistributedEngine {
    model: LinkageModel,
    fingerprint: u64,
    endpoints: Vec<Endpoint>,
    conns: Vec<Option<Box<dyn Conn>>>,
    retry: RetryPolicy,
    /// Bound on one dial — TCP connect plus the whole handshake (Hello,
    /// ack, oplog replay). A timeout surfaces as retryable IO, so a
    /// wedged peer costs the bounded retry schedule and then degrades
    /// like any dead shard instead of hanging the scatter indefinitely.
    /// Established connections are *not* bounded (a slow query is the
    /// server computing, not the transport wedging). `None` = wait
    /// forever.
    dial_timeout: Option<Duration>,
    /// Sequence number the next mutation will carry.
    next_seq: u64,
    /// Seq of `oplog[0]` (mutations before a fresh coordinator attached
    /// are the servers' business; see [`DistributedEngine::connect`]).
    base_seq: u64,
    /// Every mutation issued, for replaying reconnecting shards.
    oplog: Vec<Message>,
    /// The epoch every in-sync replica is at.
    clock: EpochClock,
    /// Always-on coordinator-side failure accounting (degraded queries,
    /// per-shard failures, quarantine/recovery/retry events), mirrored
    /// into `net.*` hydra-obs counters when collection is installed.
    health: HealthCounters,
}

impl std::fmt::Debug for DistributedEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DistributedEngine")
            .field("fingerprint", &self.fingerprint)
            .field("endpoints", &self.endpoints)
            .field(
                "connected",
                &self.conns.iter().filter(|c| c.is_some()).count(),
            )
            .field("next_seq", &self.next_seq)
            .field("epoch", &self.clock.epoch)
            .finish_non_exhaustive()
    }
}

impl DistributedEngine {
    /// Connect to every shard and handshake. Strict: each peer must
    /// accept the model fingerprint and topology, and all peers must
    /// agree on epoch and applied sequence (a fresh coordinator cannot
    /// replay history it never saw — servers recovering mid-stream must
    /// be driven by the coordinator that holds the oplog).
    pub fn connect(
        model: LinkageModel,
        endpoints: Vec<Endpoint>,
        retry: RetryPolicy,
    ) -> Result<Self, NetError> {
        let n = endpoints.len();
        let fingerprint = model.fingerprint();
        let mut eng = DistributedEngine {
            model,
            fingerprint,
            endpoints,
            conns: (0..n).map(|_| None).collect(),
            retry,
            dial_timeout: Some(Duration::from_secs(5)),
            next_seq: 1,
            base_seq: 1,
            oplog: Vec::new(),
            clock: EpochClock::default(),
            health: HealthCounters::new("net", n),
        };
        let mut statuses = Vec::with_capacity(n);
        for s in 0..n {
            statuses.push(eng.status(s)?);
        }
        if let Some(first) = statuses.first() {
            for (s, st) in statuses.iter().enumerate() {
                if (st.epoch, st.applied_seq) != (first.epoch, first.applied_seq) {
                    return Err(NetError::Protocol(format!(
                        "peers out of sync at connect: shard 0 at epoch {}/seq {}, shard {s} at epoch {}/seq {}",
                        first.epoch, first.applied_seq, st.epoch, st.applied_seq
                    )));
                }
            }
            eng.clock = EpochClock {
                epoch: first.epoch,
                settled_seq: first.applied_seq,
            };
            eng.next_seq = first.applied_seq + 1;
            eng.base_seq = eng.next_seq;
        }
        Ok(eng)
    }

    /// The number of shard processes in the topology.
    pub fn num_shards(&self) -> usize {
        self.endpoints.len()
    }

    /// The model being served.
    pub fn model(&self) -> &LinkageModel {
        &self.model
    }

    /// The epoch every in-sync replica is at.
    pub fn epoch(&self) -> u64 {
        self.clock.epoch
    }

    /// The shard process owning `account` — the shared
    /// [`routing`](hydra_core::routing) contract, byte-for-byte the
    /// mapping the servers' partition predicates and the population
    /// slicer use.
    pub fn owner_shard(&self, account: u32) -> usize {
        hydra_core::routing::owner(account, self.endpoints.len())
    }

    /// Override the dial budget (default 5 s; `None` = wait forever).
    /// See the field docs: bounds connect + handshake + replay per dial
    /// attempt, never established-connection IO.
    pub fn set_dial_timeout(&mut self, timeout: Option<Duration>) {
        self.dial_timeout = timeout;
    }

    /// Dial shard `s` and run the handshake: `Hello` (fingerprint +
    /// topology gate), then replay the oplog suffix past the peer's
    /// applied-sequence watermark so a reconnecting shard converges to
    /// the never-disconnected state before any request lands on it.
    fn dial(&mut self, s: usize) -> Result<(), NetError> {
        let dial_timer = hydra_obs::timer();
        inject_io(&format!("net.connect.{s}"))?;
        let mut stream = self.endpoints[s].connect_timeout(self.dial_timeout)?;
        // The whole handshake runs under the dial budget; cleared before
        // the connection enters service.
        stream.set_io_timeout(self.dial_timeout)?;
        Message::Hello {
            fingerprint: self.fingerprint,
            shard: s as u32,
            num_shards: self.endpoints.len() as u32,
        }
        .encode()
        .write_to(stream.as_mut())?;
        let st = match read_message(stream.as_mut())? {
            Message::HelloAck(st) => st,
            Message::Refuse(Refusal::Fingerprint { expected, found }) => {
                return Err(NetError::FingerprintMismatch { expected, found })
            }
            Message::Refuse(Refusal::Topology { expected, found }) => {
                return Err(NetError::TopologyMismatch { expected, found })
            }
            other => return Err(unexpected("HelloAck", &other)),
        };
        self.clock.adopt(&st);
        // Replay the suffix this peer missed. (Bypasses the write/read
        // injection sites — see the module docs.)
        let start = (st.applied_seq + 1).saturating_sub(self.base_seq) as usize;
        for (i, op) in self.oplog.iter().enumerate().skip(start) {
            let mut schedule = self.retry.clone();
            loop {
                op.encode().write_to(stream.as_mut())?;
                match read_message(stream.as_mut())? {
                    Message::MutResp(MutOutcome::Rejected(EngineError::Transient { .. }))
                        if schedule.back_off() => {}
                    Message::MutResp(outcome) => {
                        self.clock.observe(self.base_seq + i as u64, op, &outcome);
                        break;
                    }
                    Message::Refuse(r) => {
                        return Err(NetError::Protocol(format!("replay refused: {r:?}")))
                    }
                    other => return Err(unexpected("MutResp", &other)),
                }
            }
        }
        stream.set_io_timeout(None)?;
        self.conns[s] = Some(stream);
        if let Some(ns) = dial_timer.elapsed_ns() {
            hydra_obs::observe(&format!("net.dial.{s}"), ns);
        }
        Ok(())
    }

    /// The scatter half of one exchange: put the request frame on shard
    /// `s`'s connection (dialing first if there is none), `net.write.{s}`
    /// armed. After `Ok(())` the shard owes exactly one reply.
    fn write_half(&mut self, s: usize, msg: &Message) -> Result<(), NetError> {
        if self.conns[s].is_none() {
            self.dial(s)?;
        }
        let Some(conn) = self.conns[s].as_mut() else {
            // dial() either filled the slot or returned an error.
            return Err(NetError::Protocol(format!("shard {s}: no connection")));
        };
        let scatter = hydra_obs::timer();
        inject_io(&format!("net.write.{s}")).map_err(NetError::Io)?;
        msg.encode().write_to(conn.as_mut())?;
        if let Some(ns) = scatter.elapsed_ns() {
            hydra_obs::observe(&format!("net.scatter.{s}"), ns);
        }
        Ok(())
    }

    /// The gather half: read the one reply shard `s` owes,
    /// `net.read.{s}` armed.
    fn read_half(&mut self, s: usize) -> Result<Message, NetError> {
        let Some(conn) = self.conns[s].as_mut() else {
            return Err(NetError::Protocol(format!("shard {s}: no connection")));
        };
        let gather = hydra_obs::timer();
        inject_io(&format!("net.read.{s}")).map_err(NetError::Io)?;
        let reply = read_message(conn.as_mut())?;
        if let Some(ns) = gather.elapsed_ns() {
            hydra_obs::observe(&format!("net.gather.{s}"), ns);
        }
        if let Message::Refuse(Refusal::SeqGap { expected, found }) = reply {
            return Err(NetError::SeqGap { expected, found });
        }
        Ok(reply)
    }

    /// One request/response exchange on shard `s`'s current connection,
    /// with the `net.write.{s}` / `net.read.{s}` injection sites armed
    /// around the socket ops.
    fn exchange(&mut self, s: usize, msg: &Message) -> Result<Message, NetError> {
        self.write_half(s, msg)?;
        self.read_half(s)
    }

    /// [`DistributedEngine::exchange`] under the bounded deterministic
    /// retry schedule: a retryable failure (injected transient, torn
    /// reply, connection churn, sequence gap) drops the connection —
    /// forcing the next attempt through a fresh dial + replay — and
    /// backs off doubling. Requests are safe to re-send: queries are
    /// read-only and mutations are sequence-idempotent.
    fn request(&mut self, s: usize, msg: &Message) -> Result<Message, NetError> {
        match self.exchange(s, msg) {
            Ok(reply) => Ok(reply),
            Err(e) => self.request_from(s, msg, self.retry.clone(), e),
        }
    }

    /// Continue shard `s`'s retry schedule after an attempt failed with
    /// `last`; `schedule` is what remains of the [`RetryPolicy`] (see
    /// [`RetryPolicy::back_off`]). Each further attempt is a full exchange
    /// on a fresh dial. This is how the pipelined scatter keeps fault-site
    /// hit counts identical to the sequential path: a gather-phase failure
    /// resumes the schedule exactly where the scatter phase left it,
    /// instead of starting a fresh full-budget request (which would
    /// consume one-shot faults the sequential path never reached).
    fn request_from(
        &mut self,
        s: usize,
        msg: &Message,
        mut schedule: RetryPolicy,
        mut last: NetError,
    ) -> Result<Message, NetError> {
        loop {
            self.conns[s] = None;
            if !retryable(&last) || !schedule.back_off() {
                return Err(last);
            }
            self.health.record_retry();
            match self.exchange(s, msg) {
                Ok(reply) => return Ok(reply),
                Err(e) => last = e,
            }
        }
    }

    /// Scatter one query batch and gather degraded outcomes — the process-sharded
    /// [`ShardedEngine::query_batch_outcome`](hydra_core::shard::ShardedEngine::query_batch_outcome).
    /// Validation is delegated to the shards (each validates the whole batch
    /// against the same global statistics before any scoring); a validation
    /// refusal from any shard fails the whole batch with the exact in-process
    /// [`EngineError`]. Shards that cannot answer degrade their partition:
    /// per-left [`ShardFailure::Quarantined`] for dead connections and
    /// already-poisoned replicas, [`ShardFailure::Panicked`] for a replica
    /// that died scoring that very left.
    pub fn query_batch_outcome(
        &mut self,
        task: usize,
        lefts: &[u32],
    ) -> Result<Vec<QueryOutcome>, NetError> {
        let n = self.endpoints.len();
        let msg = Message::QueryBatch {
            task: task as u64,
            lefts: lefts.to_vec(),
        };
        // contributions[i] gathers every shard's scored candidates for
        // lefts[i]; failures[i] the per-shard failure reports, in shard
        // order (the in-process degraded ordering).
        let mut contributions: Vec<Vec<ScoredCandidate>> = vec![Vec::new(); lefts.len()];
        let mut failures: Vec<Vec<ShardFailure>> = vec![Vec::new(); lefts.len()];

        // Pipelined scatter: put the batch on every socket before reading
        // any reply, so the shards compute concurrently and the gather
        // waits on max(shard latency) instead of the sum. Replies are
        // still gathered in shard order, so merge determinism and the
        // degraded-ordering semantics are exactly the sequential path's.
        //
        // Phase one runs each shard's write under the retry schedule
        // (write failures never owed a reply, so retrying just the write
        // is the sequential path's behavior with the read deferred);
        // `scattered[s]` records what remains of its schedule and a hard
        // failure if it exhausted.
        struct Scattered {
            schedule: RetryPolicy,
            failed: Option<NetError>,
        }
        /// Drop the connections of shards (from `from` on) still owing a
        /// reply, before an error return abandons the gather.
        fn abandon(conns: &mut [Option<Box<dyn Conn>>], scattered: &[Scattered], from: usize) {
            for (t, st) in scattered.iter().enumerate().skip(from) {
                if st.failed.is_none() {
                    conns[t] = None;
                }
            }
        }
        let mut scattered: Vec<Scattered> = Vec::with_capacity(n);
        for s in 0..n {
            let mut schedule = self.retry.clone();
            let failed = loop {
                match self.write_half(s, &msg) {
                    Ok(()) => break None,
                    Err(e) => {
                        self.conns[s] = None;
                        if !retryable(&e) || !schedule.back_off() {
                            break Some(e);
                        }
                        self.health.record_retry();
                    }
                }
            };
            scattered.push(Scattered { schedule, failed });
        }

        // Phase two: gather in shard order. A gather failure resumes the
        // shard's retry schedule (full exchanges from here on) exactly
        // where phase one left it. An error that fails the whole call
        // must first drop every connection still owing a reply — a stale
        // `QueryResp` left on a socket would desynchronize the next
        // request on it.
        for s in 0..n {
            let result = match scattered[s].failed.take() {
                Some(e) => Err(e),
                None => match self.read_half(s) {
                    Ok(reply) => Ok(reply),
                    Err(e) => self.request_from(s, &msg, scattered[s].schedule.clone(), e),
                },
            };
            match result {
                Ok(Message::QueryResp(Ok(replies))) => {
                    if replies.len() != lefts.len() {
                        abandon(&mut self.conns, &scattered, s + 1);
                        return Err(NetError::Protocol(format!(
                            "shard {s}: {} replies for {} queries",
                            replies.len(),
                            lefts.len()
                        )));
                    }
                    for (i, reply) in replies.into_iter().enumerate() {
                        match reply {
                            QueryReply::Answer(contribution) => {
                                contributions[i].extend(contribution)
                            }
                            QueryReply::Panicked(message) => {
                                failures[i].push(ShardFailure::Panicked { shard: s, message })
                            }
                            QueryReply::Quarantined => {
                                failures[i].push(ShardFailure::Quarantined { shard: s })
                            }
                        }
                    }
                }
                // Batch validation failure: deterministic, every shard
                // would refuse identically — fail the call like the
                // in-process engine does.
                Ok(Message::QueryResp(Err(e))) => {
                    abandon(&mut self.conns, &scattered, s + 1);
                    return Err(NetError::Refused(e));
                }
                Ok(other) => {
                    abandon(&mut self.conns, &scattered, s + 1);
                    return Err(unexpected("QueryResp", &other));
                }
                // Protocol-level refusals are configuration errors, not
                // degradation — propagate.
                Err(
                    e @ (NetError::FingerprintMismatch { .. }
                    | NetError::TopologyMismatch { .. }
                    | NetError::Protocol(_)),
                ) => {
                    abandon(&mut self.conns, &scattered, s + 1);
                    return Err(e);
                }
                // This shard is unreachable: its partition degrades,
                // the healthy shards keep serving.
                Err(_) => {
                    for f in failures.iter_mut() {
                        f.push(ShardFailure::Quarantined { shard: s });
                    }
                }
            }
        }
        for degraded in failures.iter().filter(|f| !f.is_empty()) {
            self.health
                .record_degraded(degraded.iter().map(ShardFailure::shard));
        }
        Ok(contributions
            .into_iter()
            .zip(failures)
            .map(|(contribution, degraded)| QueryOutcome {
                predictions: merge_scored_candidates(
                    contribution,
                    self.model.candidates.max_per_user,
                ),
                degraded,
            })
            .collect())
    }

    /// Degraded single query (batch of one).
    pub fn query_outcome(&mut self, task: usize, left: u32) -> Result<QueryOutcome, NetError> {
        let mut outcomes = self.query_batch_outcome(task, &[left])?;
        match outcomes.pop() {
            Some(outcome) if outcomes.is_empty() => Ok(outcome),
            _ => Err(NetError::Protocol("batch of one returned not-one".into())),
        }
    }

    /// Strict single query: every shard must answer;
    /// [`NetError::Degraded`] otherwise. Complete answers are bitwise
    /// [`LinkageEngine::query`](hydra_core::engine::LinkageEngine).
    pub fn query(&mut self, task: usize, left: u32) -> Result<Vec<LinkagePrediction>, NetError> {
        let outcome = self.query_outcome(task, left)?;
        if !outcome.is_complete() {
            return Err(NetError::Degraded {
                failed: outcome.failed_shards(),
            });
        }
        Ok(outcome.predictions)
    }

    /// Strict batch query (every shard must answer every left).
    pub fn query_batch(
        &mut self,
        task: usize,
        lefts: &[u32],
    ) -> Result<Vec<Vec<LinkagePrediction>>, NetError> {
        let outcomes = self.query_batch_outcome(task, lefts)?;
        let mut results = Vec::with_capacity(outcomes.len());
        for outcome in outcomes {
            if !outcome.is_complete() {
                return Err(NetError::Degraded {
                    failed: outcome.failed_shards(),
                });
            }
            results.push(outcome.predictions);
        }
        Ok(results)
    }

    /// Broadcast one sequence-numbered mutation to every shard in index
    /// order. An application-level transient rejection (the shard's
    /// `replica.*` site fired; nothing was applied there) is retried on
    /// the spot under the retry schedule. Unreachable shards converge
    /// later via dial-replay. Returns the assigned bases (inserts) from
    /// the first shard that applied.
    fn broadcast(&mut self, op: Message) -> Result<Vec<u32>, NetError> {
        self.oplog.push(op.clone());
        let seq = self.next_seq;
        self.next_seq += 1;
        let n = self.endpoints.len();
        let mut bases: Option<Vec<u32>> = None;
        let mut rejected: Option<EngineError> = None;
        let mut unreachable: Vec<usize> = Vec::new();
        for s in 0..n {
            let mut schedule = self.retry.clone();
            let outcome = loop {
                match self.request(s, &op) {
                    // Seq not consumed server-side; same op retries.
                    Ok(Message::MutResp(MutOutcome::Rejected(EngineError::Transient {
                        ..
                    }))) if schedule.back_off() => {}
                    other => break other,
                }
            };
            if let Ok(Message::MutResp(outcome)) = &outcome {
                self.clock.observe(seq, &op, outcome);
            }
            match outcome {
                Ok(Message::MutResp(MutOutcome::Applied { bases: b })) => {
                    if let Some(prev) = &bases {
                        if *prev != b {
                            return Err(NetError::Protocol(format!(
                                "shard {s} assigned bases {b:?}, earlier shard assigned {prev:?}"
                            )));
                        }
                    } else {
                        bases = Some(b);
                    }
                }
                // Dial-replay already delivered this op to that shard.
                Ok(Message::MutResp(MutOutcome::AlreadyApplied)) => {}
                Ok(Message::MutResp(MutOutcome::Rejected(e))) => rejected = Some(e),
                Ok(other) => return Err(unexpected("MutResp", &other)),
                Err(
                    e @ (NetError::FingerprintMismatch { .. }
                    | NetError::TopologyMismatch { .. }
                    | NetError::Protocol(_)),
                ) => return Err(e),
                Err(_) => unreachable.push(s),
            }
        }
        if let Some(e) = rejected {
            // Deterministic rejection: every shard that heard the op
            // consumed the seq and rejected identically; replay keeps the
            // rest consistent. Report the in-process error.
            return Err(NetError::Refused(e));
        }
        match bases {
            Some(bases) => Ok(bases),
            // Every shard was unreachable. The op stays in the oplog —
            // dial-replay delivers it when shards return, converging to
            // the applied state (the epoch follows then, see
            // `EpochClock`) — but the caller sees failed-for-now.
            None => Err(NetError::Degraded {
                failed: unreachable,
            }),
        }
    }

    /// Register one account on `platform` across every shard — the
    /// process-sharded
    /// [`ShardedEngine::insert_account_with_edges`](hydra_core::shard::ShardedEngine::insert_account_with_edges).
    /// Returns the assigned global account index. On the wire a single
    /// insert is an `InsertBatch` of one.
    pub fn insert_account_with_edges(
        &mut self,
        platform: usize,
        sig: UserSignals,
        edges: &[(u32, f64)],
    ) -> Result<u32, NetError> {
        let bases = self.insert_batch_with_edges(platform, vec![(sig, edges.to_vec())])?;
        match bases.as_slice() {
            [base] => Ok(*base),
            other => Err(NetError::Protocol(format!(
                "insert of one account assigned {} bases",
                other.len()
            ))),
        }
    }

    /// Register a batch under one published epoch across every shard.
    /// An empty batch is a no-op here — no sequence number, no oplog
    /// entry, no epoch bump — because every replica treats it as a no-op
    /// at the current epoch, exactly like the in-process engine.
    pub fn insert_batch_with_edges(
        &mut self,
        platform: usize,
        accounts: Vec<(UserSignals, Vec<(u32, f64)>)>,
    ) -> Result<Vec<u32>, NetError> {
        if accounts.is_empty() {
            return Ok(Vec::new());
        }
        let op = Message::InsertBatch {
            seq: self.next_seq,
            platform: platform as u32,
            accounts,
        };
        self.broadcast(op)
    }

    /// De-list an account across every shard.
    pub fn remove_account(&mut self, platform: usize, account: u32) -> Result<(), NetError> {
        let op = Message::Remove {
            seq: self.next_seq,
            platform: platform as u32,
            account,
        };
        self.broadcast(op)?;
        Ok(())
    }

    /// Assert every reachable shard adopted the coordinator's epoch —
    /// the cross-process form of the epoch-lockstep invariant the
    /// in-process engine keeps by construction.
    pub fn assert_epochs(&mut self) -> Result<(), NetError> {
        let epoch = self.clock.epoch;
        for s in 0..self.endpoints.len() {
            let reply = self.request(s, &Message::AdoptEpoch { epoch })?;
            expect_ok(s, reply)?;
        }
        Ok(())
    }

    /// Probe one shard: its status plus the metrics snapshot its process
    /// attached, if any.
    fn status_with_metrics(
        &mut self,
        s: usize,
    ) -> Result<(StatusInfo, Option<MetricsSnapshot>), NetError> {
        match self.request(s, &Message::Status)? {
            Message::StatusResp { info, metrics } => Ok((info, metrics)),
            other => Err(unexpected("StatusResp", &other)),
        }
    }

    /// Probe one shard's status (ignoring any attached metrics payload).
    pub fn status(&mut self, s: usize) -> Result<StatusInfo, NetError> {
        Ok(self.status_with_metrics(s)?.0)
    }

    /// Coordinator-side failure accounting: degraded queries, per-shard
    /// failure counts, quarantine/recovery/retry events since connect.
    pub fn health(&self) -> &HealthCounters {
        &self.health
    }

    /// Aggregate a fleet-wide metrics view: probe every shard's status
    /// and merge the snapshots each process attached (counters add,
    /// gauges take the max, histograms combine bucket-wise), then fold
    /// in this process's own snapshot when local collection is on.
    ///
    /// Shards running with metrics disabled (`HYDRA_OBS=0`) or speaking
    /// a newer snapshot version contribute nothing rather than failing
    /// the probe; an unreachable shard fails the call like any other
    /// status probe.
    pub fn fleet_metrics(&mut self) -> Result<MetricsSnapshot, NetError> {
        let mut fleet = MetricsSnapshot::default();
        for s in 0..self.endpoints.len() {
            if let Some(snap) = self.status_with_metrics(s)?.1 {
                fleet.merge_from(&snap);
            }
        }
        if hydra_obs::enabled() {
            fleet.merge_from(&hydra_obs::snapshot());
        }
        Ok(fleet)
    }

    /// Poison one shard's replica (testing / operational isolation).
    pub fn quarantine(&mut self, s: usize) -> Result<(), NetError> {
        let reply = self.request(s, &Message::Quarantine)?;
        expect_ok(s, reply)?;
        self.health.record_quarantine();
        Ok(())
    }

    /// Rebuild every shard's partition index deterministically and clear
    /// poison — the cross-process
    /// [`ShardedEngine::recover_quarantined`](hydra_core::shard::ShardedEngine::recover_quarantined).
    pub fn recover(&mut self) -> Result<(), NetError> {
        for s in 0..self.endpoints.len() {
            let reply = self.request(s, &Message::Recover)?;
            expect_ok(s, reply)?;
            self.health.record_recovery(1);
        }
        Ok(())
    }

    /// Ask every reachable shard process to exit (best-effort; shards
    /// that are already gone are skipped).
    pub fn shutdown_all(&mut self) {
        for s in 0..self.endpoints.len() {
            let _ = self.request(s, &Message::Shutdown);
            self.conns[s] = None;
        }
    }
}
