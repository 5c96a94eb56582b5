//! The serving surface the op list drives, and the executor that times it.
//!
//! All three deployments — one in-process [`LinkageEngine`], the
//! thread-sharded [`ShardedEngine`], and the process-sharded
//! [`DistributedEngine`] — answer the same five calls, so one executor runs
//! any phase against any of them.

use crate::ops::Op;
use crate::stats::Digest;
use crate::trace::Tracer;
use crate::world::{World, RIGHT, TASK};
use hydra_core::ingest::{FoldInMode, RawAccount, SignalExtractor};
use hydra_core::model::LinkagePrediction;
use hydra_core::{LinkageEngine, ShardedEngine, UserSignals};
use hydra_net::DistributedEngine;
use std::time::Instant;

pub type Answer = Vec<LinkagePrediction>;
pub type EdgeDelta = Vec<(u32, f64)>;

/// The five calls a HYDRA caller makes. Errors are strings: the executor
/// only counts them.
pub trait Target {
    /// Span names of this deployment's calls (`engine.*`, `sharded.*`,
    /// `coordinator.*`).
    fn layer(&self) -> Layer;
    fn query(&mut self, left: u32) -> Result<Answer, String>;
    fn query_batch(&mut self, lefts: &[u32]) -> Result<Vec<Answer>, String>;
    fn insert(&mut self, sig: UserSignals, edges: &[(u32, f64)]) -> Result<u32, String>;
    fn insert_batch(&mut self, batch: Vec<(UserSignals, EdgeDelta)>) -> Result<Vec<u32>, String>;
    fn remove(&mut self, account: u32) -> Result<(), String>;
    fn epoch(&self) -> u64;
}

/// Span names of one deployment's calls.
#[derive(Debug, Clone, Copy)]
pub struct Layer {
    pub query: &'static str,
    pub query_batch: &'static str,
    pub insert: &'static str,
    pub insert_batch: &'static str,
    pub remove: &'static str,
}

fn err<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}

impl Target for LinkageEngine {
    fn layer(&self) -> Layer {
        Layer {
            query: "engine.query",
            query_batch: "engine.query_batch",
            insert: "engine.insert",
            insert_batch: "engine.insert_batch",
            remove: "engine.remove",
        }
    }
    fn query(&mut self, left: u32) -> Result<Answer, String> {
        LinkageEngine::query(self, TASK, left).map_err(err)
    }
    fn query_batch(&mut self, lefts: &[u32]) -> Result<Vec<Answer>, String> {
        LinkageEngine::query_batch(self, TASK, lefts).map_err(err)
    }
    fn insert(&mut self, sig: UserSignals, edges: &[(u32, f64)]) -> Result<u32, String> {
        self.insert_account_with_edges(RIGHT, sig, edges)
            .map_err(err)
    }
    fn insert_batch(&mut self, batch: Vec<(UserSignals, EdgeDelta)>) -> Result<Vec<u32>, String> {
        LinkageEngine::insert_batch(self, RIGHT, batch).map_err(err)
    }
    fn remove(&mut self, account: u32) -> Result<(), String> {
        self.remove_account(RIGHT, account).map_err(err)
    }
    fn epoch(&self) -> u64 {
        self.snapshot().epoch()
    }
}

impl Target for ShardedEngine {
    fn layer(&self) -> Layer {
        Layer {
            query: "sharded.query",
            query_batch: "sharded.query_batch",
            insert: "sharded.insert",
            insert_batch: "sharded.insert_batch",
            remove: "sharded.remove",
        }
    }
    fn query(&mut self, left: u32) -> Result<Answer, String> {
        ShardedEngine::query(self, TASK, left).map_err(err)
    }
    fn query_batch(&mut self, lefts: &[u32]) -> Result<Vec<Answer>, String> {
        ShardedEngine::query_batch(self, TASK, lefts).map_err(err)
    }
    fn insert(&mut self, sig: UserSignals, edges: &[(u32, f64)]) -> Result<u32, String> {
        self.insert_account_with_edges(RIGHT, sig, edges)
            .map_err(err)
    }
    fn insert_batch(&mut self, batch: Vec<(UserSignals, EdgeDelta)>) -> Result<Vec<u32>, String> {
        self.insert_batch_with_edges(RIGHT, batch).map_err(err)
    }
    fn remove(&mut self, account: u32) -> Result<(), String> {
        self.remove_account(RIGHT, account).map_err(err)
    }
    fn epoch(&self) -> u64 {
        self.snapshot().epoch()
    }
}

/// The strict coordinator calls: a degraded outcome (a shard that did not
/// answer) is an error here and counts as a failed op.
impl Target for DistributedEngine {
    fn layer(&self) -> Layer {
        Layer {
            query: "coordinator.query",
            query_batch: "coordinator.query_batch",
            insert: "coordinator.insert",
            insert_batch: "coordinator.insert_batch",
            remove: "coordinator.remove",
        }
    }
    fn query(&mut self, left: u32) -> Result<Answer, String> {
        DistributedEngine::query(self, TASK, left).map_err(err)
    }
    fn query_batch(&mut self, lefts: &[u32]) -> Result<Vec<Answer>, String> {
        DistributedEngine::query_batch(self, TASK, lefts).map_err(err)
    }
    fn insert(&mut self, sig: UserSignals, edges: &[(u32, f64)]) -> Result<u32, String> {
        self.insert_account_with_edges(RIGHT, sig, edges)
            .map_err(err)
    }
    fn insert_batch(&mut self, batch: Vec<(UserSignals, EdgeDelta)>) -> Result<Vec<u32>, String> {
        self.insert_batch_with_edges(RIGHT, batch).map_err(err)
    }
    fn remove(&mut self, account: u32) -> Result<(), String> {
        self.remove_account(RIGHT, account).map_err(err)
    }
    fn epoch(&self) -> u64 {
        DistributedEngine::epoch(self)
    }
}

/// One mutation as applied, kept so an untimed twin can replay the run.
#[derive(Debug, Clone)]
pub enum Mutation {
    Insert(Box<UserSignals>, EdgeDelta),
    InsertBatch(Vec<(UserSignals, EdgeDelta)>),
    Remove(u32),
}

/// Apply a mutation log to another deployment (the correctness twin).
pub fn replay(log: &[Mutation], twin: &mut dyn Target) -> Result<(), String> {
    for m in log {
        match m {
            Mutation::Insert(sig, edges) => {
                twin.insert((**sig).clone(), edges)?;
            }
            Mutation::InsertBatch(batch) => {
                twin.insert_batch(batch.clone())?;
            }
            Mutation::Remove(account) => twin.remove(*account)?,
        }
    }
    Ok(())
}

/// The driver's view of the right-side population as the ops change it:
/// who is behind each slot (ground truth for `linkage_f1`), which slots
/// are live (remove targets), and which were inserted during the run
/// (edge targets — their profiles are on every shard, so Eq. 18 reads the
/// same bytes whichever shard scores the pair).
pub struct RightSide {
    person: Vec<u32>,
    live: Vec<u32>,
    inserted: Vec<u32>,
}

impl RightSide {
    pub fn of(world: &World) -> Self {
        RightSide {
            person: world.raws.iter().map(|r| r.person).collect(),
            live: (0..world.raws.len() as u32).collect(),
            inserted: Vec::new(),
        }
    }

    pub fn next_slot(&self) -> u32 {
        self.person.len() as u32
    }

    pub fn live_count(&self) -> usize {
        self.live.len()
    }

    pub fn person_of(&self, slot: u32) -> u32 {
        self.person[slot as usize]
    }

    fn push(&mut self, person: u32) {
        let slot = self.next_slot();
        self.person.push(person);
        self.live.push(slot);
        self.inserted.push(slot);
    }

    fn edges_for(&self, draws: [u64; 2]) -> EdgeDelta {
        if self.inserted.is_empty() {
            return Vec::new();
        }
        let mut edges: EdgeDelta = Vec::with_capacity(2);
        for d in draws {
            let to = self.inserted[(d % self.inserted.len() as u64) as usize];
            if edges.iter().all(|&(t, _)| t != to) {
                // Interaction weight in [0.5, 2.5).
                edges.push((to, 0.5 + (d >> 32) as f64 / (1u64 << 31) as f64));
            }
        }
        edges
    }
}

/// Latency samples (ns) and counts of one run, by op kind.
#[derive(Debug, Default)]
pub struct Samples {
    pub query_ns: Vec<u64>,
    /// `(queries, ns)` per `query_batch`.
    pub batch: Vec<(usize, u64)>,
    pub insert_ns: Vec<u64>,
    pub remove_ns: Vec<u64>,
    /// `(accounts, ns)` per ingest batch (extract + insert).
    pub ingest: Vec<(usize, u64)>,
    pub fit_ns: Vec<u64>,
    pub cold_start_ns: Vec<u64>,
    pub attempted: u64,
    pub failed: u64,
    /// Lefts of the sampled query ops with their op ids (traced run only).
    pub sampled_lefts: Vec<(i64, u32)>,
    /// Digest over every answer, in op order.
    pub digest: Digest,
}

/// Every `SAMPLE_EVERY`-th op of a traced run records spans.
pub const SAMPLE_EVERY: u64 = 8;

/// Executes ops against a target, timing each and keeping the books.
pub struct Runner<'w> {
    pub world: &'w World,
    /// The frozen extractor in Tables fold-in mode, for ingest batches.
    pub tables: SignalExtractor,
    pub samples: Samples,
    pub tracer: Tracer,
    /// Mutations in application order, when a twin will replay them.
    pub log: Option<Vec<Mutation>>,
    next_op: u64,
}

impl<'w> Runner<'w> {
    pub fn new(world: &'w World, tracer: Tracer, keep_log: bool) -> Self {
        let tables = world
            .extractor
            .clone()
            .with_fold_in_mode(FoldInMode::Tables);
        // Fold-in tables are part of a warm ingest path; build them off the
        // clock (the ledger times the build on a clone).
        let _ = tables.fold_in_tables();
        Runner {
            world,
            tables,
            samples: Samples::default(),
            tracer,
            log: keep_log.then(Vec::new),
            next_op: 0,
        }
    }

    /// Run the next `count` ops of `ops` against `target`, whose right-side
    /// population `right` tracks.
    pub fn run_count(
        &mut self,
        target: &mut dyn Target,
        right: &mut RightSide,
        ops: &mut dyn Iterator<Item = Op>,
        count: usize,
    ) {
        for op in ops.take(count) {
            self.execute(target, right, op);
        }
    }

    fn fail(&mut self, what: &str, e: String) {
        self.samples.failed += 1;
        eprintln!("benchmark: op {} failed: {what}: {e}", self.next_op - 1);
    }

    /// Execute one op: time it, record it, keep the population books.
    pub fn execute(&mut self, target: &mut dyn Target, right: &mut RightSide, op: Op) {
        let op_id = self.next_op as i64;
        self.next_op += 1;
        self.samples.attempted += 1;
        let sampled = self.tracer.enabled() && (op_id as u64).is_multiple_of(SAMPLE_EVERY);
        let layer = target.layer();
        let world = self.world;
        let tracer = &mut self.tracer;
        match op {
            Op::Query { left } => {
                let open = tracer.begin_if(sampled, layer.query, op_id);
                let t = Instant::now();
                let out = target.query(left);
                let ns = t.elapsed().as_nanos() as u64;
                tracer.end(open);
                match out {
                    Ok(answer) => {
                        self.samples.query_ns.push(ns);
                        self.samples.digest.answer(&answer);
                        if sampled {
                            self.samples.sampled_lefts.push((op_id, left));
                        }
                    }
                    Err(e) => self.fail("query", e),
                }
            }
            Op::Batch { lefts } => {
                let open = tracer.begin_if(sampled, layer.query_batch, op_id);
                let t = Instant::now();
                let out = target.query_batch(&lefts);
                let ns = t.elapsed().as_nanos() as u64;
                tracer.end(open);
                match out {
                    Ok(answers) => {
                        self.samples.batch.push((lefts.len(), ns));
                        for a in &answers {
                            self.samples.digest.answer(a);
                        }
                    }
                    Err(e) => self.fail("query_batch", e),
                }
            }
            Op::Insert { raw, edge_draws } => {
                let raw_account = &world.raws[raw as usize];
                let slot = right.next_slot();
                let edges = right.edges_for(edge_draws);
                let whole = tracer.begin_if(sampled, "op.insert", op_id);
                let t = Instant::now();
                let open = tracer.begin_if(sampled, "ingest.extract_raw", op_id);
                let sig = world.extractor.extract_raw(raw_account, slot);
                tracer.end(open);
                let extracted = t.elapsed();
                // The twin's copy is made off the clock.
                let copy = self.log.is_some().then(|| sig.clone());
                let t2 = Instant::now();
                let open = tracer.begin_if(sampled, layer.insert, op_id);
                let out = target.insert(sig, &edges);
                tracer.end(open);
                let ns = (extracted + t2.elapsed()).as_nanos() as u64;
                tracer.end(whole);
                match out {
                    Ok(got) if got == slot => {
                        self.samples.insert_ns.push(ns);
                        right.push(raw_account.person);
                        if let (Some(log), Some(copy)) = (self.log.as_mut(), copy) {
                            log.push(Mutation::Insert(Box::new(copy), edges));
                        }
                    }
                    Ok(got) => {
                        self.fail("insert", format!("landed at slot {got}, expected {slot}"))
                    }
                    Err(e) => self.fail("insert", e),
                }
            }
            Op::Remove { draw } => {
                if right.live.is_empty() {
                    self.fail("remove", "no live right account".into());
                    return;
                }
                let at = (draw % right.live.len() as u64) as usize;
                let account = right.live[at];
                let open = tracer.begin_if(sampled, layer.remove, op_id);
                let t = Instant::now();
                let out = target.remove(account);
                let ns = t.elapsed().as_nanos() as u64;
                tracer.end(open);
                match out {
                    Ok(()) => {
                        self.samples.remove_ns.push(ns);
                        right.live.swap_remove(at);
                        if let Some(log) = self.log.as_mut() {
                            log.push(Mutation::Remove(account));
                        }
                    }
                    Err(e) => self.fail("remove", e),
                }
            }
            Op::Ingest { raws } => {
                // The feed's payloads are materialized off the clock; the
                // timed part is extraction plus the one-epoch insert.
                let payloads: Vec<RawAccount> = raws
                    .iter()
                    .map(|&r| world.raws[r as usize].clone())
                    .collect();
                let slot = right.next_slot();
                let whole = tracer.begin_if(sampled, "op.ingest", op_id);
                let t = Instant::now();
                let open = tracer.begin_if(sampled, "ingest.extract_batch", op_id);
                let sigs = self.tables.extract_batch(&payloads, slot);
                tracer.end(open);
                let batch: Vec<(UserSignals, EdgeDelta)> =
                    sigs.into_iter().map(|s| (s, Vec::new())).collect();
                let extracted = t.elapsed();
                let copy = self.log.is_some().then(|| batch.clone());
                let t2 = Instant::now();
                let open = tracer.begin_if(sampled, layer.insert_batch, op_id);
                let out = target.insert_batch(batch);
                tracer.end(open);
                let ns = (extracted + t2.elapsed()).as_nanos() as u64;
                tracer.end(whole);
                match out {
                    Ok(slots) if slots.first() == Some(&slot) && slots.len() == raws.len() => {
                        self.samples.ingest.push((raws.len(), ns));
                        for &r in &raws {
                            right.push(world.raws[r as usize].person);
                        }
                        if let (Some(log), Some(copy)) = (self.log.as_mut(), copy) {
                            log.push(Mutation::InsertBatch(copy));
                        }
                    }
                    Ok(slots) => self.fail(
                        "ingest",
                        format!(
                            "{} slots from {:?}, expected {} from {slot}",
                            slots.len(),
                            slots.first(),
                            raws.len()
                        ),
                    ),
                    Err(e) => self.fail("ingest", e),
                }
            }
        }
    }

    /// Query every left account (untimed) and score the `linked` decisions
    /// against person ground truth over the live right side: pairwise F1,
    /// where a true pair is a left account and a live right slot of the
    /// same person.
    pub fn linkage_f1(&self, target: &mut dyn Target, right: &RightSide) -> Result<f64, String> {
        let lefts: Vec<u32> = (0..self.world.num_lefts() as u32).collect();
        let (mut tp, mut fp) = (0u64, 0u64);
        for chunk in lefts.chunks(64) {
            for answer in target.query_batch(chunk)? {
                for p in answer.iter().filter(|p| p.linked) {
                    if self.world.left_person[p.left as usize] == right.person_of(p.right) {
                        tp += 1;
                    } else {
                        fp += 1;
                    }
                }
            }
        }
        // Every person has exactly one left account, so each live right
        // slot is one true pair.
        let missed = right.live_count() as u64 - tp;
        Ok(if tp == 0 {
            0.0
        } else {
            2.0 * tp as f64 / (2 * tp + fp + missed) as f64
        })
    }
}
