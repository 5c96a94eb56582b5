//! The message registry: every request/response the coordinator and a
//! shard server exchange, with its frame-kind tag and payload codec.
//!
//! Payloads are encoded with the [`crate::codec`] value codecs and decoded
//! through the checked [`Reader`]; [`Message::decode`] additionally
//! rejects trailing bytes, so a frame either decodes to exactly one
//! message or surfaces a typed [`ModelIoError`].

use crate::codec;
use crate::frame::Frame;
use bytes::{BufMut, BytesMut};
use hydra_core::artifact::{put_str, read_str, ModelIoError, Reader};
use hydra_core::engine::EngineError;
use hydra_core::shard::ScoredCandidate;
use hydra_core::signals::UserSignals;
use hydra_obs::MetricsSnapshot;

/// Frame-kind registry (the `kind` byte of every [`Frame`]).
pub mod kind {
    /// Coordinator → server: handshake with expected fingerprint/topology.
    pub const HELLO: u8 = 1;
    /// Server → coordinator: handshake accepted, here is my status.
    pub const HELLO_ACK: u8 = 2;
    /// Coordinator → server: score these left accounts for one task.
    pub const QUERY_BATCH: u8 = 3;
    /// Server → coordinator: per-left scored contributions (or batch error).
    pub const QUERY_RESP: u8 = 4;
    /// Coordinator → server: apply an insert batch (seq-numbered).
    pub const INSERT_BATCH: u8 = 5;
    /// Coordinator → server: de-list an account (seq-numbered).
    pub const REMOVE: u8 = 6;
    /// Server → coordinator: mutation outcome.
    pub const MUT_RESP: u8 = 7;
    /// Coordinator → server: status probe.
    pub const STATUS: u8 = 8;
    /// Server → coordinator: status report.
    pub const STATUS_RESP: u8 = 9;
    /// Coordinator → server: assert the replica reached this epoch.
    pub const ADOPT_EPOCH: u8 = 10;
    /// Coordinator → server: poison the replica (serve degraded).
    pub const QUARANTINE: u8 = 11;
    /// Coordinator → server: rebuild the partition index and clear poison.
    pub const RECOVER: u8 = 12;
    /// Server → coordinator: generic success ack.
    pub const OK: u8 = 13;
    /// Server → coordinator: request refused (handshake/sequence/assert).
    pub const REFUSE: u8 = 14;
    /// Coordinator → server: drain and exit.
    pub const SHUTDOWN: u8 = 15;
}

/// A shard server's self-description, returned in `HelloAck` and
/// `StatusResp`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatusInfo {
    /// Partition index this server holds.
    pub shard: u32,
    /// Partition width the population is sharded over.
    pub num_shards: u32,
    /// Config fingerprint of the model being served.
    pub fingerprint: u64,
    /// The replica's profile-snapshot epoch.
    pub epoch: u64,
    /// Highest mutation sequence number applied (0 = none).
    pub applied_seq: u64,
    /// Whether the replica is poisoned (a query panicked; queries answer
    /// `Quarantined` until `Recover`).
    pub poisoned: bool,
}

/// One left account's reply inside a `QueryResp` — the socket form of the
/// in-process degraded-serving outcomes.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryReply {
    /// The partition's scored contribution for this left account.
    Answer(Vec<ScoredCandidate>),
    /// The replica panicked scoring *this* left; it is now poisoned.
    Panicked(String),
    /// The replica was already poisoned; this left was skipped.
    Quarantined,
}

/// Outcome of a sequence-numbered mutation.
#[derive(Debug, Clone, PartialEq)]
pub enum MutOutcome {
    /// Applied; the account slots assigned (inserts) or empty (removals).
    Applied {
        /// Global account indices assigned, in batch order.
        bases: Vec<u32>,
    },
    /// This sequence number was already applied — idempotent replay ack.
    AlreadyApplied,
    /// The mutation failed validation (or hit an injected transient); the
    /// exact [`EngineError`] the in-process path returns. Deterministic
    /// rejections consume the sequence number; `Transient` does not.
    Rejected(EngineError),
}

/// Why a server refused a request outright.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Refusal {
    /// Handshake fingerprint differs from the model this server loaded.
    Fingerprint {
        /// Fingerprint the coordinator asked for.
        expected: u64,
        /// Fingerprint this server serves.
        found: u64,
    },
    /// Handshake topology differs from this server's partition coords.
    Topology {
        /// `(shard, num_shards)` the coordinator asked for.
        expected: (u32, u32),
        /// `(shard, num_shards)` this server holds.
        found: (u32, u32),
    },
    /// A mutation arrived out of order; the coordinator must replay.
    SeqGap {
        /// The next sequence number this server will accept.
        expected: u64,
        /// The sequence number that was offered.
        found: u64,
    },
    /// Anything else (epoch assertion failure, unknown frame kind, ...).
    Other(String),
}

/// Every message of the wire protocol. [`Message::encode`] produces the
/// [`Frame`] (kind tag + payload); [`Message::decode`] is its checked
/// inverse.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Handshake: the coordinator states the model fingerprint and
    /// partition coordinates it expects this peer to serve.
    Hello {
        /// Config fingerprint of the coordinator's model.
        fingerprint: u64,
        /// Partition index the coordinator dialed this peer as.
        shard: u32,
        /// Partition width of the coordinator's topology.
        num_shards: u32,
    },
    /// Handshake accepted.
    HelloAck(StatusInfo),
    /// Score `lefts` for `task`; one [`QueryReply`] per left, in order.
    QueryBatch {
        /// Platform-pair task index.
        task: u64,
        /// Left-side accounts to rank, replied to in this order.
        lefts: Vec<u32>,
    },
    /// Whole-batch validation error (`Err`) or per-left replies (`Ok`).
    QueryResp(Result<Vec<QueryReply>, EngineError>),
    /// Apply an insert batch under one published epoch.
    InsertBatch {
        /// Mutation sequence number (1-based, strictly increasing).
        seq: u64,
        /// Target platform.
        platform: u32,
        /// New accounts: extracted profile + weighted edges to existing
        /// accounts on the same platform.
        accounts: Vec<(UserSignals, Vec<(u32, f64)>)>,
    },
    /// De-list one account.
    Remove {
        /// Mutation sequence number (1-based, strictly increasing).
        seq: u64,
        /// Target platform.
        platform: u32,
        /// Account to de-list.
        account: u32,
    },
    /// Mutation outcome.
    MutResp(MutOutcome),
    /// Status probe.
    Status,
    /// Status report, optionally carrying the server's metrics snapshot
    /// (a length-prefixed, self-versioned `HOBS` payload — servers built
    /// with a newer snapshot format than this decoder read as `None`
    /// instead of failing, so fleets can upgrade one process at a time).
    StatusResp {
        /// The server's self-description (same shape as `HelloAck`).
        info: StatusInfo,
        /// The server's `hydra-obs` snapshot; `None` when the server has
        /// collection disabled or speaks a newer snapshot version.
        metrics: Option<MetricsSnapshot>,
    },
    /// Assert the replica's epoch reached `epoch` (lockstep check after a
    /// broadcast mutation); `Ok` or `Refuse(Other)`.
    AdoptEpoch {
        /// The epoch every replica must have adopted.
        epoch: u64,
    },
    /// Poison the replica: subsequent queries answer `Quarantined`.
    Quarantine,
    /// Rebuild the partition index deterministically and clear poison.
    Recover,
    /// Generic success ack.
    Ok,
    /// Request refused.
    Refuse(Refusal),
    /// Drain and exit the serve loop.
    Shutdown,
}

fn put_status(w: &mut BytesMut, s: &StatusInfo) {
    w.put_u32_le(s.shard);
    w.put_u32_le(s.num_shards);
    w.put_u64_le(s.fingerprint);
    w.put_u64_le(s.epoch);
    w.put_u64_le(s.applied_seq);
    codec::put_bool(w, s.poisoned);
}

fn read_status(r: &mut Reader) -> Result<StatusInfo, ModelIoError> {
    Ok(StatusInfo {
        shard: r.u32()?,
        num_shards: r.u32()?,
        fingerprint: r.u64()?,
        epoch: r.u64()?,
        applied_seq: r.u64()?,
        poisoned: codec::read_bool(r)?,
    })
}

fn put_scored_vec(w: &mut BytesMut, v: &[ScoredCandidate]) {
    w.put_u64_le(v.len() as u64);
    for sc in v {
        codec::put_scored(w, sc);
    }
}

fn read_scored_vec(r: &mut Reader) -> Result<Vec<ScoredCandidate>, ModelIoError> {
    // left + right + username_sim + pre_matched + score + linked
    let n = r.len_prefix(4 + 4 + 8 + 1 + 8 + 1)?;
    (0..n).map(|_| codec::read_scored(r)).collect()
}

fn put_reply(w: &mut BytesMut, reply: &QueryReply) {
    match reply {
        QueryReply::Answer(v) => {
            w.put_slice(&[0]);
            put_scored_vec(w, v);
        }
        QueryReply::Panicked(msg) => {
            w.put_slice(&[1]);
            put_str(w, msg);
        }
        QueryReply::Quarantined => w.put_slice(&[2]),
    }
}

fn read_reply(r: &mut Reader) -> Result<QueryReply, ModelIoError> {
    match r.u8()? {
        0 => Ok(QueryReply::Answer(read_scored_vec(r)?)),
        1 => Ok(QueryReply::Panicked(read_str(r)?)),
        2 => Ok(QueryReply::Quarantined),
        t => Err(r.corrupt(format!("unknown query reply tag {t} (expected 0..=2)"))),
    }
}

fn put_refusal(w: &mut BytesMut, refusal: &Refusal) {
    match refusal {
        Refusal::Fingerprint { expected, found } => {
            w.put_slice(&[0]);
            w.put_u64_le(*expected);
            w.put_u64_le(*found);
        }
        Refusal::Topology { expected, found } => {
            w.put_slice(&[1]);
            w.put_u32_le(expected.0);
            w.put_u32_le(expected.1);
            w.put_u32_le(found.0);
            w.put_u32_le(found.1);
        }
        Refusal::SeqGap { expected, found } => {
            w.put_slice(&[2]);
            w.put_u64_le(*expected);
            w.put_u64_le(*found);
        }
        Refusal::Other(what) => {
            w.put_slice(&[3]);
            put_str(w, what);
        }
    }
}

fn read_refusal(r: &mut Reader) -> Result<Refusal, ModelIoError> {
    match r.u8()? {
        0 => Ok(Refusal::Fingerprint {
            expected: r.u64()?,
            found: r.u64()?,
        }),
        1 => Ok(Refusal::Topology {
            expected: (r.u32()?, r.u32()?),
            found: (r.u32()?, r.u32()?),
        }),
        2 => Ok(Refusal::SeqGap {
            expected: r.u64()?,
            found: r.u64()?,
        }),
        3 => Ok(Refusal::Other(read_str(r)?)),
        t => Err(r.corrupt(format!("unknown refusal tag {t} (expected 0..=3)"))),
    }
}

impl Message {
    /// The frame-kind tag this message travels under.
    pub fn kind(&self) -> u8 {
        match self {
            Message::Hello { .. } => kind::HELLO,
            Message::HelloAck(_) => kind::HELLO_ACK,
            Message::QueryBatch { .. } => kind::QUERY_BATCH,
            Message::QueryResp(_) => kind::QUERY_RESP,
            Message::InsertBatch { .. } => kind::INSERT_BATCH,
            Message::Remove { .. } => kind::REMOVE,
            Message::MutResp(_) => kind::MUT_RESP,
            Message::Status => kind::STATUS,
            Message::StatusResp { .. } => kind::STATUS_RESP,
            Message::AdoptEpoch { .. } => kind::ADOPT_EPOCH,
            Message::Quarantine => kind::QUARANTINE,
            Message::Recover => kind::RECOVER,
            Message::Ok => kind::OK,
            Message::Refuse(_) => kind::REFUSE,
            Message::Shutdown => kind::SHUTDOWN,
        }
    }

    /// Encode into a wire frame.
    pub fn encode(&self) -> Frame {
        let mut w = BytesMut::with_capacity(64);
        match self {
            Message::Hello {
                fingerprint,
                shard,
                num_shards,
            } => {
                w.put_u64_le(*fingerprint);
                w.put_u32_le(*shard);
                w.put_u32_le(*num_shards);
            }
            Message::HelloAck(s) => put_status(&mut w, s),
            Message::StatusResp { info, metrics } => {
                put_status(&mut w, info);
                let blob = metrics.as_ref().map(MetricsSnapshot::to_bytes);
                let blob = blob.as_deref().unwrap_or(&[]);
                w.put_u64_le(blob.len() as u64);
                w.put_slice(blob);
            }
            Message::QueryBatch { task, lefts } => {
                w.put_u64_le(*task);
                codec::put_u32_vec(&mut w, lefts);
            }
            Message::QueryResp(result) => match result {
                Ok(replies) => {
                    w.put_slice(&[0]);
                    w.put_u64_le(replies.len() as u64);
                    for reply in replies {
                        put_reply(&mut w, reply);
                    }
                }
                Err(e) => {
                    w.put_slice(&[1]);
                    codec::put_engine_error(&mut w, e);
                }
            },
            Message::InsertBatch {
                seq,
                platform,
                accounts,
            } => {
                w.put_u64_le(*seq);
                w.put_u32_le(*platform);
                w.put_u64_le(accounts.len() as u64);
                for (sig, edges) in accounts {
                    codec::put_signals(&mut w, sig);
                    w.put_u64_le(edges.len() as u64);
                    for (neighbor, weight) in edges {
                        w.put_u32_le(*neighbor);
                        w.put_f64_le(*weight);
                    }
                }
            }
            Message::Remove {
                seq,
                platform,
                account,
            } => {
                w.put_u64_le(*seq);
                w.put_u32_le(*platform);
                w.put_u32_le(*account);
            }
            Message::MutResp(outcome) => match outcome {
                MutOutcome::Applied { bases } => {
                    w.put_slice(&[0]);
                    codec::put_u32_vec(&mut w, bases);
                }
                MutOutcome::AlreadyApplied => w.put_slice(&[1]),
                MutOutcome::Rejected(e) => {
                    w.put_slice(&[2]);
                    codec::put_engine_error(&mut w, e);
                }
            },
            Message::AdoptEpoch { epoch } => w.put_u64_le(*epoch),
            Message::Refuse(refusal) => put_refusal(&mut w, refusal),
            Message::Status
            | Message::Quarantine
            | Message::Recover
            | Message::Ok
            | Message::Shutdown => {}
        }
        Frame::new(self.kind(), w.freeze().to_vec())
    }

    /// Decode a frame back into a message. Unknown kinds, malformed
    /// payloads, and trailing bytes all surface typed errors.
    pub fn decode(frame: &Frame) -> Result<Message, ModelIoError> {
        let mut r = Reader::new(&frame.payload);
        r.set_section("message payload");
        let msg = match frame.kind {
            kind::HELLO => Message::Hello {
                fingerprint: r.u64()?,
                shard: r.u32()?,
                num_shards: r.u32()?,
            },
            kind::HELLO_ACK => Message::HelloAck(read_status(&mut r)?),
            kind::QUERY_BATCH => Message::QueryBatch {
                task: r.u64()?,
                lefts: codec::read_u32_vec(&mut r)?,
            },
            kind::QUERY_RESP => Message::QueryResp(match r.u8()? {
                0 => {
                    let n = r.len_prefix(1)?;
                    Ok((0..n)
                        .map(|_| read_reply(&mut r))
                        .collect::<Result<Vec<_>, _>>()?)
                }
                1 => Err(codec::read_engine_error(&mut r)?),
                t => {
                    return Err(r.corrupt(format!("unknown query result tag {t} (expected 0 or 1)")))
                }
            }),
            kind::INSERT_BATCH => {
                let seq = r.u64()?;
                let platform = r.u32()?;
                // Each account is a profile plus its edge-count prefix.
                let n = r.len_prefix(codec::MIN_SIGNALS_BYTES + 8)?;
                let mut accounts = Vec::with_capacity(n);
                for _ in 0..n {
                    let sig = codec::read_signals(&mut r)?;
                    let ne = r.len_prefix(12)?;
                    let mut edges = Vec::with_capacity(ne);
                    for _ in 0..ne {
                        let neighbor = r.u32()?;
                        let weight = r.f64()?;
                        edges.push((neighbor, weight));
                    }
                    accounts.push((sig, edges));
                }
                Message::InsertBatch {
                    seq,
                    platform,
                    accounts,
                }
            }
            kind::REMOVE => Message::Remove {
                seq: r.u64()?,
                platform: r.u32()?,
                account: r.u32()?,
            },
            kind::MUT_RESP => Message::MutResp(match r.u8()? {
                0 => MutOutcome::Applied {
                    bases: codec::read_u32_vec(&mut r)?,
                },
                1 => MutOutcome::AlreadyApplied,
                2 => MutOutcome::Rejected(codec::read_engine_error(&mut r)?),
                t => {
                    return Err(
                        r.corrupt(format!("unknown mutation outcome tag {t} (expected 0..=2)"))
                    )
                }
            }),
            kind::STATUS => Message::Status,
            kind::STATUS_RESP => {
                let info = read_status(&mut r)?;
                let n = r.len_prefix(1)?;
                let metrics = if n == 0 {
                    None
                } else {
                    let blob = r.bytes(n)?;
                    // A malformed blob is a wire error; a valid blob with a
                    // newer version than this build reads as absent.
                    MetricsSnapshot::from_bytes(blob)
                        .map_err(|e| r.corrupt(format!("metrics snapshot: {e}")))?
                };
                Message::StatusResp { info, metrics }
            }
            kind::ADOPT_EPOCH => Message::AdoptEpoch { epoch: r.u64()? },
            kind::QUARANTINE => Message::Quarantine,
            kind::RECOVER => Message::Recover,
            kind::OK => Message::Ok,
            kind::REFUSE => Message::Refuse(read_refusal(&mut r)?),
            kind::SHUTDOWN => Message::Shutdown,
            k => return Err(r.corrupt(format!("unknown frame kind {k}"))),
        };
        if r.remaining() != 0 {
            return Err(r.corrupt(format!("{} trailing bytes after message", r.remaining())));
        }
        Ok(msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hydra_core::CandidatePair;

    fn round_trip(msg: Message) {
        let frame = msg.encode();
        let bytes = frame.to_bytes();
        let (frame2, used) = Frame::from_bytes(&bytes).unwrap();
        assert_eq!(used, bytes.len());
        let back = Message::decode(&frame2).unwrap();
        assert_eq!(back, msg);
    }

    fn sample_status() -> StatusInfo {
        StatusInfo {
            shard: 1,
            num_shards: 4,
            fingerprint: 0xFEED_F00D,
            epoch: 17,
            applied_seq: 9,
            poisoned: false,
        }
    }

    fn sample_metrics() -> MetricsSnapshot {
        let mut m = MetricsSnapshot::default();
        m.counters.insert("net.requests".into(), 12);
        m.gauges.insert("serve.epoch".into(), 17);
        m.histograms.insert(
            "serve.query".into(),
            hydra_obs::HistogramSnapshot {
                count: 2,
                sum: 3000,
                min: 1000,
                max: 2000,
                buckets: vec![(197, 1), (229, 1)],
            },
        );
        m
    }

    #[test]
    fn every_message_round_trips() {
        let scored = ScoredCandidate {
            cand: CandidatePair {
                left: 3,
                right: 11,
                username_sim: 0.75,
                pre_matched: true,
            },
            score: -0.125,
            linked: false,
        };
        let mut sig = UserSignals::empty();
        sig.username = "ripley".into();
        sig.embedding = vec![1.5, -2.25];

        for msg in [
            Message::Hello {
                fingerprint: 42,
                shard: 2,
                num_shards: 4,
            },
            Message::HelloAck(sample_status()),
            Message::QueryBatch {
                task: 0,
                lefts: vec![5, 6, 7],
            },
            Message::QueryResp(Ok(vec![
                QueryReply::Answer(vec![scored.clone()]),
                QueryReply::Panicked("injected panic at net.serve.1".into()),
                QueryReply::Quarantined,
            ])),
            Message::QueryResp(Err(EngineError::TaskOutOfRange {
                task: 7,
                num_tasks: 1,
            })),
            Message::InsertBatch {
                seq: 3,
                platform: 1,
                accounts: vec![(sig, vec![(0, 1.5), (4, 0.25)])],
            },
            Message::Remove {
                seq: 4,
                platform: 0,
                account: 9,
            },
            Message::MutResp(MutOutcome::Applied {
                bases: vec![36, 37],
            }),
            Message::MutResp(MutOutcome::AlreadyApplied),
            Message::MutResp(MutOutcome::Rejected(EngineError::Transient {
                site: "replica.insert",
            })),
            Message::Status,
            Message::StatusResp {
                info: sample_status(),
                metrics: None,
            },
            Message::StatusResp {
                info: sample_status(),
                metrics: Some(sample_metrics()),
            },
            Message::AdoptEpoch { epoch: 12 },
            Message::Quarantine,
            Message::Recover,
            Message::Ok,
            Message::Refuse(Refusal::Fingerprint {
                expected: 1,
                found: 2,
            }),
            Message::Refuse(Refusal::Topology {
                expected: (0, 2),
                found: (1, 2),
            }),
            Message::Refuse(Refusal::SeqGap {
                expected: 5,
                found: 9,
            }),
            Message::Refuse(Refusal::Other("epoch drift".into())),
            Message::Shutdown,
        ] {
            round_trip(msg);
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut frame = Message::Ok.encode();
        frame.payload.push(0);
        let err = Message::decode(&frame).unwrap_err();
        assert!(
            matches!(err, ModelIoError::Corrupt { ref what, .. } if what.contains("trailing")),
            "{err}"
        );
    }

    #[test]
    fn insert_batch_count_is_bounded_by_the_smallest_account() {
        // seq | platform | count, then one filler byte per claimed account:
        // enough for a per-byte bound, far short of any real account.
        let claimed = 4096usize;
        let mut payload = Vec::new();
        payload.extend(1u64.to_le_bytes());
        payload.extend(1u32.to_le_bytes());
        payload.extend((claimed as u64).to_le_bytes());
        payload.resize(payload.len() + claimed, 0);
        let bytes = Frame::new(kind::INSERT_BATCH, payload).to_bytes();
        let (frame, _) = Frame::from_bytes(&bytes).expect("checksum-valid frame");
        match Message::decode(&frame) {
            Err(ModelIoError::Truncated { needed, .. }) => {
                assert_eq!(needed, claimed * (codec::MIN_SIGNALS_BYTES + 8))
            }
            other => panic!("expected the count itself to be refused, got {other:?}"),
        }
    }

    #[test]
    fn unknown_kind_is_typed() {
        let frame = Frame::new(200, Vec::new());
        assert!(matches!(
            Message::decode(&frame).unwrap_err(),
            ModelIoError::Corrupt { .. }
        ));
    }

    #[test]
    fn truncated_payload_is_typed() {
        let frame = Message::QueryBatch {
            task: 0,
            lefts: vec![1, 2, 3],
        }
        .encode();
        for cut in 0..frame.payload.len() {
            let short = Frame::new(frame.kind, frame.payload[..cut].to_vec());
            assert!(
                matches!(
                    Message::decode(&short).unwrap_err(),
                    ModelIoError::Truncated { .. }
                ),
                "cut {cut}"
            );
        }
    }
}
