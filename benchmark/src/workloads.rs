//! The four workloads: set-up, timed phases, correctness gates.
//!
//! Every workload is a closed loop with one client — HYDRA's callers (an
//! analyst tool, a batch linker, the coordinator, which is `&mut self`
//! with one connection per shard) each wait for a reply. A workload's
//! timed phases issue only the op kinds it exists to apply; the end-to-end
//! metrics of the kinds it never issues are read off the set-up probe (see
//! [`Probe`]), which is the same on all four.

use crate::fleet::{self, Fleet};
use crate::ledger;
use crate::ops::{Mix, Op, OpSizes, OpStream, SplitMix64};
use crate::stats::Digest;
use crate::target::{replay, RightSide, Runner, Samples, Target};
use crate::trace::{Tracer, NONE};
use crate::world::{self, Scratch, SetupSample, World, TASK};
use hydra_core::ingest::ServingArtifact;
use hydra_core::{LinkageEngine, ShardedEngine};
use hydra_net::DistributedEngine;
use std::collections::HashMap;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ServeQuery,
    FleetMixed,
    IngestBackfill,
    TrainCold,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ServeQuery,
        Workload::FleetMixed,
        Workload::IngestBackfill,
        Workload::TrainCold,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeQuery => "serve_query",
            Workload::FleetMixed => "fleet_mixed",
            Workload::IngestBackfill => "ingest_backfill",
            Workload::TrainCold => "train_cold",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Sizes of one run. `full` is what `BENCHMARK.json` measures; `smoke`
/// divides population and op counts by about ten for a quick check.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub persons: usize,
    /// Set-ups per untraced run; `setup_s` is their median.
    pub setup_reps: usize,
    pub batch: usize,
    pub ingest_batch: usize,
    /// Accounts one backfill cycle streams in.
    pub backfill_accounts: usize,
    /// Probe queries after each backfill cycle.
    pub backfill_probes: usize,
    /// Cold starts per fit in `train_cold`.
    pub cold_starts_per_fit: usize,
    /// Lefts compared against the reference in sampled correctness checks.
    pub check_lefts: usize,
    /// `query_batch`es and ingest batches of one set-up probe (its queries,
    /// inserts and removes are sized by `persons`).
    pub probe_batches: usize,
    pub probe_ingest: usize,
    /// Every op count is divided by this.
    pub ops_divisor: f64,
    /// Whether the timing gates (attribution remainders) are enforced. At
    /// smoke size a fit takes 40 ms and fixed overheads are a third of it;
    /// smoke checks the plumbing and the answers, not the numbers.
    pub gate_timings: bool,
}

impl Scale {
    pub const FULL: Scale = Scale {
        persons: 500,
        setup_reps: 4,
        batch: 64,
        ingest_batch: 512,
        backfill_accounts: 5000,
        backfill_probes: 20,
        cold_starts_per_fit: 3,
        check_lefts: 128,
        probe_batches: 6,
        probe_ingest: 3,
        ops_divisor: 1.0,
        gate_timings: true,
    };
    pub const SMOKE: Scale = Scale {
        persons: 60,
        setup_reps: 1,
        batch: 16,
        ingest_batch: 64,
        backfill_accounts: 500,
        backfill_probes: 10,
        cold_starts_per_fit: 2,
        check_lefts: 24,
        probe_batches: 2,
        probe_ingest: 1,
        ops_divisor: 10.0,
        gate_timings: false,
    };

    /// Ops of one set-up probe, by kind: one pass over the lefts, the
    /// batches, one pass of inserts over the raws, half as many removes,
    /// the ingest batches. Whole passes: every probe queries every left and
    /// inserts every raw exactly once, so a percentile's place in the
    /// latency distribution does not move with the seed.
    fn probe(&self) -> [(Mix, usize); 5] {
        [
            (Mix::QUERIES, self.persons),
            (Mix::BATCHES, self.probe_batches),
            (Mix::INSERTS, self.persons),
            (Mix::REMOVES, self.persons / 2),
            (Mix::INGEST, self.probe_ingest),
        ]
    }

    fn sizes(&self) -> OpSizes {
        OpSizes {
            lefts: self.persons,
            raws: self.persons,
            batch: self.batch,
            ingest_batch: self.ingest_batch,
        }
    }
}

pub struct RunConfig {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
}

/// Everything one run measured, before it is turned into metrics.
pub struct RunResult {
    pub setups: Vec<SetupSample>,
    /// Samples of the workload's own timed phases.
    pub samples: Samples,
    /// Samples of each set-up's probe, plus that set-up's fit and cold
    /// start: one entry per set-up.
    pub probes: Vec<Samples>,
    pub linkage_f1: f64,
    pub peak_rss_bytes: u64,
    pub artifact_bytes: u64,
    /// Per-layer values of the traced run (empty when untraced).
    pub layers: ledger::Layers,
    /// Counts worth printing beside the metrics.
    pub notes: Vec<(&'static str, f64)>,
}

/// Stream ids: each phase of a run draws its own op list.
mod phase {
    pub const WARM_UP: u64 = 0;
    pub const PRIMARY: u64 = 1;
    pub const BATCHES: u64 = 3;
    pub const CHECK: u64 = 6;
    pub const FEED: u64 = 7;
    pub const PROBE: u64 = 8;
}

/// The set-up probe: a short, fixed burst of every op kind — queries,
/// `query_batch`es, single inserts and removes, ingest batches — against
/// the single engine each set-up cold-starts, off the set-up clock and
/// outside the timed phases. The harness wants every end-to-end metric from
/// every workload; a workload whose phases never issue an op kind reports
/// that kind's metrics from these samples (the same code on the same engine
/// on all four workloads, so such a row is a reference reading, not a
/// measurement of the workload). Each set-up's probe is one measurement
/// and a run reports the median of them, as it does for `setup_s`. The
/// probed engine is dropped, and the streams carry on across a run's
/// set-ups.
struct Probe {
    streams: Vec<(OpStream, usize)>,
    /// One entry per set-up probed.
    samples: Vec<Samples>,
}

impl Probe {
    fn new(cfg: &RunConfig) -> Probe {
        let streams = (cfg.scale.probe().into_iter().zip(phase::PROBE..))
            .map(|((mix, count), phase)| {
                let ops = OpStream::new(cfg.seed, phase, mix, cfg.scale.sizes());
                (ops, count)
            })
            .collect();
        Probe {
            streams,
            samples: Vec::new(),
        }
    }

    /// Probe the engine `setup` cold-started; the set-up's own fit and cold
    /// start join the probe's samples.
    fn run(&mut self, world: &World, mut engine: LinkageEngine, setup: &SetupSample) {
        let mut runner = Runner::new(world, Tracer::new(false), false);
        let mut right = RightSide::of(world);
        for (ops, count) in &mut self.streams {
            runner.run_count(&mut engine, &mut right, ops, *count);
        }
        runner.samples.fit_ns.push(setup.fit_ns);
        runner.samples.cold_start_ns.push(setup.cold_start_ns);
        self.samples.push(runner.samples);
    }
}

/// What a workload's own set-up step leaves for its timed phases.
enum Prepared {
    Single(LinkageEngine),
    Fleet {
        fleet: Fleet,
        engine: DistributedEngine,
    },
    /// The backfill feed: corpus indices of the raw accounts, in stream
    /// order.
    Backfill(Vec<u32>),
    Nothing,
}

fn prepare(
    cfg: &RunConfig,
    world: &World,
    scratch: &Scratch,
    tracer: &mut Tracer,
) -> Result<Prepared, String> {
    match cfg.workload {
        Workload::ServeQuery => Ok(Prepared::Single(tracer.span(
            "engine.build",
            NONE,
            || world.engine(),
        )?)),
        Workload::FleetMixed => {
            let open = tracer.begin("fleet.launch", NONE);
            let fleet = Fleet::launch(world, scratch)?;
            tracer.end(open);
            let engine = tracer.span("coordinator.connect", NONE, || fleet.connect(world))?;
            Ok(Prepared::Fleet { fleet, engine })
        }
        Workload::IngestBackfill => {
            // Every raw account the same number of times, in seeded order:
            // the backfilled population is the same whatever the seed.
            let mut feed: Vec<u32> = (0..cfg.scale.backfill_accounts)
                .map(|i| (i % world.raws.len()) as u32)
                .collect();
            let mut rng = SplitMix64::new(cfg.seed ^ phase::FEED);
            for i in (1..feed.len()).rev() {
                feed.swap(i, rng.below(i + 1));
            }
            Ok(Prepared::Backfill(feed))
        }
        Workload::TrainCold => Ok(Prepared::Nothing),
    }
}

/// One set-up: the world and its cold-started engine, the probe (off the
/// clock), then the workload's own preparation.
fn set_up(
    cfg: &RunConfig,
    scratch: &Scratch,
    probe: &mut Probe,
    tracer: &mut Tracer,
) -> Result<(World, Prepared, SetupSample), String> {
    let t = Instant::now();
    let (world, cold, mut sample) = world::build(cfg.scale.persons, scratch, tracer)?;
    let built = t.elapsed();
    probe.run(&world, cold, &sample);
    let t = Instant::now();
    let prepared = prepare(cfg, &world, scratch, tracer)?;
    sample.total_ns = (built + t.elapsed()).as_nanos() as u64;
    Ok((world, prepared, sample))
}

/// Run one workload end to end. An `Err` is a correctness failure or an
/// environment problem; either way no metrics are printed.
pub fn run(cfg: &RunConfig) -> Result<RunResult, String> {
    let scratch = Scratch::create().map_err(|e| format!("scratch dir: {e}"))?;
    let mut tracer = Tracer::new(cfg.trace);
    let mut probe = Probe::new(cfg);

    // ---- the set-up the timed phases run on
    let (world, prepared, first) = set_up(cfg, &scratch, &mut probe, &mut tracer)?;
    let mut setups = vec![first];
    let artifact_bytes = setups[0].serving_bytes + setups[0].population_bytes;

    let keep_log = cfg.workload == Workload::FleetMixed;
    let mut runner = Runner::new(&world, tracer, keep_log);

    let started = Instant::now();
    let mut notes: Vec<(&'static str, f64)> = Vec::new();
    let mut fleet_layers: Option<ledger::Layers> = None;
    let mut peak_rss_bytes = 0u64;
    let linkage_f1 = match prepared {
        Prepared::Single(mut engine) => serve_query(cfg, &mut runner, &mut engine)?,
        Prepared::Fleet { fleet, mut engine } => {
            let f1 = fleet_mixed(cfg, &mut runner, &mut engine)?;
            if cfg.trace {
                fleet_layers = Some(ledger::fleet_layers(
                    &world,
                    &fleet,
                    &mut engine,
                    &mut runner,
                )?);
            }
            peak_rss_bytes += fleet.peak_rss_bytes();
            fleet.shutdown(&mut engine)?;
            f1
        }
        Prepared::Backfill(feed) => ingest_backfill(cfg, &mut runner, &feed, &mut notes)?,
        Prepared::Nothing => train_cold(cfg, &mut runner, &scratch, &mut notes)?,
    };
    notes.push(("workload_wall_s", started.elapsed().as_secs_f64()));

    let layers = if cfg.trace {
        let layers = ledger::run(
            cfg,
            &world,
            &mut runner,
            &probe.samples[0],
            &setups[0],
            fleet_layers,
        )?;
        let path = world::results_dir().join(format!("trace_{}.jsonl", cfg.workload.name()));
        runner
            .tracer
            .write_jsonl(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        layers
    } else {
        ledger::Layers::default()
    };
    let samples = std::mem::take(&mut runner.samples);
    drop(runner);
    drop(world);

    // ---- the remaining set-ups, at the far end of the run, so the
    // set-ups do not all see the same moment of the host. One world is
    // alive at a time.
    if !cfg.trace {
        let mut off = Tracer::new(false);
        for _ in 1..cfg.scale.setup_reps {
            let (world, prepared, sample) = set_up(cfg, &scratch, &mut probe, &mut off)?;
            setups.push(sample);
            // A fleet's guard kills and reaps its shards here.
            drop((prepared, world));
        }
    }
    peak_rss_bytes += fleet::vm_hwm_bytes(std::process::id());

    Ok(RunResult {
        setups,
        samples,
        probes: probe.samples,
        linkage_f1,
        peak_rss_bytes,
        artifact_bytes,
        layers,
        notes,
    })
}

/// Op counts per second of `--seconds`, sized on the two-core reference
/// host so that a workload's timed phases together take about `--seconds`
/// there. The counts — not the clock — end a phase: a parent commit and a
/// change execute the identical op list, and count-type metrics repeat
/// exactly.
mod rate {
    /// `serve_query` phase A (at 15 s: ten passes over the 500 lefts, one a
    /// round) and B.
    pub const SERVE_QUERIES: f64 = 1000.0 / 3.0;
    pub const SERVE_BATCHES: f64 = 3.0;
    /// `fleet_mixed` 88/8/4 mix, and batches.
    pub const FLEET_OPS: f64 = 300.0;
    pub const FLEET_BATCHES: f64 = 2.0;
    /// `ingest_backfill` cycles; `train_cold` fit cycles.
    pub const BACKFILL_CYCLES: f64 = 2.0;
    pub const FIT_CYCLES: f64 = 0.47;
}

/// A workload's two phases run interleaved, in this many rounds: both
/// metrics' samples are then spread over the whole run instead of bunched
/// into the seconds their phase would take, so a shift in the host's speed
/// reaches both alike.
const ROUNDS: usize = 10;

/// Ops in a phase: `per_second × --seconds`, scaled down in smoke mode,
/// never below `floor` (what the phase's percentiles need).
fn op_count(cfg: &RunConfig, per_second: f64, floor: usize) -> usize {
    let floor = (floor as f64 / cfg.scale.ops_divisor).ceil() as usize;
    ((per_second * cfg.seconds / cfg.scale.ops_divisor).round() as usize).max(floor.max(1))
}

/// One phase of a workload: its op list and how much of it a round runs.
struct Phase {
    ops: OpStream,
    per_round: usize,
}

impl Phase {
    /// `op_count(per_second, floor)` ops of `mix` over [`ROUNDS`] rounds
    /// (rounded up to whole rounds).
    fn new(cfg: &RunConfig, phase: u64, mix: Mix, per_second: f64, floor: usize) -> Phase {
        Phase {
            ops: OpStream::new(cfg.seed, phase, mix, cfg.scale.sizes()),
            per_round: op_count(cfg, per_second, floor).div_ceil(ROUNDS),
        }
    }

    fn round(&mut self, runner: &mut Runner<'_>, target: &mut dyn Target, right: &mut RightSide) {
        runner.run_count(target, right, &mut self.ops, self.per_round);
    }
}

/// Untimed warm-up: caches fill and lazy set-up finishes before timing.
/// Its samples are discarded (it only queries, so the population stays);
/// a failure during warm-up still fails the run.
fn warm_up(
    cfg: &RunConfig,
    runner: &mut Runner<'_>,
    target: &mut dyn Target,
    right: &mut RightSide,
) {
    let tracer = std::mem::replace(&mut runner.tracer, Tracer::new(false));
    let mut ops = OpStream::new(cfg.seed, phase::WARM_UP, Mix::QUERIES, cfg.scale.sizes());
    runner.run_count(target, right, &mut ops, op_count(cfg, 0.0, 500));
    let failed = runner.samples.failed;
    runner.samples = Default::default();
    runner.samples.failed = failed;
    runner.samples.attempted = failed;
    runner.tracer = tracer;
}

/// `serve_query`: one in-process engine, read-only. Phase A is single
/// queries over seeded-uniform lefts, phase B `query_batch`es of 64 — the
/// only place `hydra-par` fan-out can show. The answers are checked against
/// `TrainedHydra::predict`.
fn serve_query(
    cfg: &RunConfig,
    runner: &mut Runner<'_>,
    engine: &mut LinkageEngine,
) -> Result<f64, String> {
    let world = runner.world;
    let mut right = RightSide::of(world);
    warm_up(cfg, runner, engine, &mut right);
    let mut queries = Phase::new(cfg, phase::PRIMARY, Mix::QUERIES, rate::SERVE_QUERIES, 2000);
    let mut batches = Phase::new(cfg, phase::BATCHES, Mix::BATCHES, rate::SERVE_BATCHES, 20);
    for _ in 0..ROUNDS {
        queries.round(runner, engine, &mut right);
        batches.round(runner, engine, &mut right);
    }
    check_against_predict(world, engine)?;
    runner.linkage_f1(engine, &right)
}

/// Serve answers must be the batch path's: every served pair exists in
/// `TrainedHydra::predict` with the same score bits (compared through an
/// FNV digest over all lefts), in rank order.
fn check_against_predict(world: &World, engine: &LinkageEngine) -> Result<(), String> {
    let reference: HashMap<(u32, u32), u64> = world
        .trained
        .predict(TASK)
        .iter()
        .map(|p| ((p.left, p.right), p.score.to_bits()))
        .collect();
    let (mut served, mut batch) = (Digest::default(), Digest::default());
    for left in 0..world.num_lefts() as u32 {
        let answer = engine
            .query(TASK, left)
            .map_err(|e| format!("check query {left}: {e}"))?;
        for pair in answer.windows(2) {
            let ranked = pair[0].score > pair[1].score
                || (pair[0].score == pair[1].score && pair[0].right < pair[1].right);
            if !ranked {
                return Err(format!(
                    "serve_query: answer for left {left} is not in rank order"
                ));
            }
        }
        for p in &answer {
            let Some(&bits) = reference.get(&(p.left, p.right)) else {
                return Err(format!(
                    "serve_query: served pair ({}, {}) is not a fit-time candidate",
                    p.left, p.right
                ));
            };
            let key = ((p.left as u64) << 32) | p.right as u64;
            served.u64(key);
            served.u64(p.score.to_bits());
            batch.u64(key);
            batch.u64(bits);
        }
    }
    if served != batch {
        return Err(format!(
            "serve_query: served answers (digest {:#018x}) differ from TrainedHydra::predict ({:#018x})",
            served.value(),
            batch.value()
        ));
    }
    Ok(())
}

/// `fleet_mixed`: two real `hydra-shardd` processes behind the
/// coordinator under an 88/8/4 query/insert/remove mix, with
/// `query_batch`es in between; inserts outnumber removes, so the right
/// side grows through the run. An in-process `ShardedEngine` twin replays
/// the mutation log off the clock; final answers and epoch must match it.
fn fleet_mixed(
    cfg: &RunConfig,
    runner: &mut Runner<'_>,
    engine: &mut DistributedEngine,
) -> Result<f64, String> {
    let world = runner.world;
    let mut right = RightSide::of(world);
    warm_up(cfg, runner, engine, &mut right);
    let mut mixed = Phase::new(cfg, phase::PRIMARY, Mix::FLEET, rate::FLEET_OPS, 3000);
    let mut batches = Phase::new(cfg, phase::BATCHES, Mix::BATCHES, rate::FLEET_BATCHES, 20);
    for _ in 0..ROUNDS {
        mixed.round(runner, engine, &mut right);
        batches.round(runner, engine, &mut right);
    }
    let f1 = runner.linkage_f1(engine, &right)?;

    let mut twin = world.sharded_engine(fleet::SHARDS)?;
    let log = runner.log.as_deref().expect("fleet_mixed keeps its log");
    replay(log, &mut twin)?;
    if Target::epoch(&twin) != Target::epoch(engine) {
        return Err(format!(
            "fleet_mixed: coordinator at epoch {}, twin at {}",
            Target::epoch(engine),
            Target::epoch(&twin)
        ));
    }
    engine
        .assert_epochs()
        .map_err(|e| format!("fleet_mixed: shard epochs drifted: {e}"))?;
    let (mut got, mut want) = (Digest::default(), Digest::default());
    let mut rng = SplitMix64::new(cfg.seed ^ phase::CHECK);
    for _ in 0..cfg.scale.check_lefts {
        let left = rng.below(world.num_lefts()) as u32;
        got.answer(&Target::query(engine, left)?);
        want.answer(&Target::query(&mut twin, left)?);
    }
    if got != want {
        return Err(format!(
            "fleet_mixed: fleet answers (digest {:#018x}) differ from the in-process twin ({:#018x})",
            got.value(),
            want.value()
        ));
    }
    Ok(f1)
}

/// `ingest_backfill`: cycles of a fresh two-shard in-process engine taking
/// the whole feed through Tables-mode `extract_batch` and one-epoch batch
/// inserts (each batch one `ingest_accounts_per_s` sample), then a few
/// untimed probe queries as a correctness check.
fn ingest_backfill(
    cfg: &RunConfig,
    runner: &mut Runner<'_>,
    feed: &[u32],
    notes: &mut Vec<(&'static str, f64)>,
) -> Result<f64, String> {
    let world = runner.world;
    let cycles = op_count(cfg, rate::BACKFILL_CYCLES, 3);
    let batches_per_cycle = feed.len().div_ceil(cfg.scale.ingest_batch);
    let corpus = world.raws.len() as u32;
    let mut f1 = 0.0;
    for cycle in 0..cycles {
        let mut engine = world.sharded_engine(fleet::SHARDS)?;
        let mut right = RightSide::of(world);
        for chunk in feed.chunks(cfg.scale.ingest_batch) {
            let raws = chunk.to_vec();
            runner.execute(&mut engine, &mut right, Op::Ingest { raws });
        }
        if runner.samples.failed != 0 {
            return Err("ingest_backfill: a backfill batch failed".into());
        }
        if Target::epoch(&engine) != batches_per_cycle as u64 {
            return Err(format!(
                "ingest_backfill: {} epochs after {batches_per_cycle} batches (one epoch per batch expected)",
                Target::epoch(&engine)
            ));
        }
        // Probe the lefts of the first backfilled persons (person p's left
        // account is left slot p): at least one answer must contain a
        // backfilled slot.
        let mut surfaced = false;
        for &raw in feed.iter().take(cfg.scale.backfill_probes) {
            let left = world.raws[raw as usize].person;
            runner.samples.attempted += 1;
            surfaced |= ShardedEngine::query(&engine, TASK, left)
                .map_err(|e| format!("ingest_backfill: probe query {left}: {e}"))?
                .iter()
                .any(|p| p.right >= corpus);
        }
        if !surfaced {
            return Err("ingest_backfill: no backfilled slot surfaced in any probe answer".into());
        }
        if cycle + 1 == cycles {
            f1 = runner.linkage_f1(&mut engine, &right)?;
        }
    }
    notes.push(("backfill_cycles", cycles as f64));
    notes.push(("backfill_accounts_per_cycle", feed.len() as f64));
    Ok(f1)
}

/// `train_cold`: rounds of one `Hydra::fit` and a few cold starts from
/// freshly saved artifacts (bytes on disk → first answer). Reloaded
/// engines must answer exactly as the engine built before saving.
fn train_cold(
    cfg: &RunConfig,
    runner: &mut Runner<'_>,
    scratch: &Scratch,
    notes: &mut Vec<(&'static str, f64)>,
) -> Result<f64, String> {
    let world = runner.world;
    let rounds = op_count(cfg, rate::FIT_CYCLES, 2);
    let mut rng = SplitMix64::new(cfg.seed ^ phase::CHECK);
    // A quarter of the usual check sample: it is compared after every one
    // of the round's cold starts.
    let check_lefts: Vec<u32> = (0..cfg.scale.check_lefts.div_ceil(4))
        .map(|_| rng.below(world.num_lefts()) as u32)
        .collect();
    let serving_path = scratch.path().join("cycle.hysa");
    let population_path = scratch.path().join("cycle.hypp");
    let mut f1 = 0.0;
    for round in 0..rounds {
        runner.samples.attempted += 1;
        let (trained, ns) = runner.tracer.timed("model.fit", NONE, || world.fit());
        let trained = trained.map_err(|e| format!("train_cold: {e}"))?;
        runner.samples.fit_ns.push(ns);

        // The engine as built before anything is saved: the reference the
        // reloaded engines must equal.
        let before = world.engine_for(&trained.model)?;
        let mut want = Digest::default();
        for &left in &check_lefts {
            want.answer(&before.query(TASK, left).map_err(|e| e.to_string())?);
        }
        drop(before);

        for start in 0..cfg.scale.cold_starts_per_fit {
            runner.samples.attempted += 1;
            // Saving is the trainer's cost (the ledger's `artifact.save_ms`);
            // `cold_start_ms` is the server's: bytes on disk → first answer.
            ServingArtifact {
                model: trained.model.clone(),
                extractor: world.extractor.clone(),
            }
            .save(&serving_path)
            .map_err(|e| format!("cycle save: {e}"))?;
            world
                .population()
                .save(&population_path)
                .map_err(|e| format!("cycle save: {e}"))?;
            let mut cold = world::cold_start(&serving_path, &population_path, &mut runner.tracer)?;
            runner.samples.cold_start_ns.push(cold.total_ns);
            let mut got = Digest::default();
            for &left in &check_lefts {
                got.answer(&cold.engine.query(TASK, left).map_err(|e| e.to_string())?);
            }
            if got != want {
                return Err(format!(
                    "train_cold: reloaded engine answers (digest {:#018x}) differ from the pre-save engine's ({:#018x})",
                    got.value(),
                    want.value()
                ));
            }
            if round + 1 == rounds && start + 1 == cfg.scale.cold_starts_per_fit {
                f1 = runner.linkage_f1(&mut cold.engine, &RightSide::of(world))?;
            }
        }
    }
    notes.push(("fit_cycles", rounds as f64));
    Ok(f1)
}
