//! Process-sharded == thread-sharded == single, **bitwise** — with real
//! `hydra-shardd` OS processes on the other side of the socket.
//!
//! Each test cold-starts shard servers from the same two files a real
//! deployment ships (`HYSA` serving artifact + `HYPP` population
//! artifact), spawned via `CARGO_BIN_EXE_hydra-shardd`, and drives them
//! through a [`DistributedEngine`]:
//!
//! * shard counts {1, 2, 4} answer every query byte-identically to the
//!   in-process [`ShardedEngine`] and the single [`LinkageEngine`],
//!   through a query / insert / insert-batch / remove mix, with epoch
//!   lockstep asserted across every process;
//! * killing one shard process degrades deterministically — the
//!   surviving partition answers bitwise what an in-process engine with
//!   that shard quarantined answers — mutations still land on healthy
//!   shards, and a restarted process converges through dial-time oplog
//!   replay to bitwise equality with a never-faulted reference;
//! * a TCP endpoint (ephemeral port, learned from the `READY` line)
//!   serves the same bits as the unix-socket deployment.

use hydra_core::engine::LinkageEngine;
use hydra_core::ingest::{ServingArtifact, SignalExtractor};
use hydra_core::model::{Hydra, HydraConfig, LinkagePrediction, PairTask, TrainedHydra};
use hydra_core::shard::{RetryPolicy, ShardFailure, ShardedEngine};
use hydra_core::signals::{SignalConfig, Signals, UserSignals};
use hydra_core::source::AccountSource;
use hydra_datagen::{Dataset, DatasetConfig};
use hydra_graph::SocialGraph;
use hydra_net::coordinator::Endpoint;
use hydra_net::{DistributedEngine, PopulationArtifact};
use std::io::BufRead;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::OnceLock;
use std::time::Duration;

struct World {
    dataset: Dataset,
    signals: Signals,
    extractor: SignalExtractor,
    trained: TrainedHydra,
    dir: PathBuf,
    artifact: PathBuf,
    population: PathBuf,
}

/// One fitted world + its on-disk artifacts, shared by every test in this
/// binary (the servers never mutate the files, and every test spawns its
/// own processes on its own sockets).
fn world() -> &'static World {
    static WORLD: OnceLock<World> = OnceLock::new();
    WORLD.get_or_init(|| {
        let dataset = Dataset::generate(DatasetConfig::english(24, 0x9D15));
        let (signals, extractor) = Signals::extract_with_extractor(
            &dataset,
            &SignalConfig {
                lda_iterations: 6,
                infer_iterations: 2,
                ..Default::default()
            },
        );
        let n = dataset.num_persons() as u32;
        let mut labels = Vec::new();
        for i in 0..n / 4 {
            labels.push((i, i, true));
            labels.push((i, (i + n / 2) % n, false));
        }
        let trained = Hydra::new(HydraConfig::default())
            .fit(
                &dataset,
                &signals,
                vec![PairTask {
                    left_platform: 0,
                    right_platform: 1,
                    labels,
                    unlabeled_whitelist: None,
                }],
            )
            .expect("fit");

        let dir = std::env::temp_dir().join(format!("hynet-proc-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("test dir");
        let artifact = dir.join("serving.hysa");
        ServingArtifact {
            model: trained.model.clone(),
            extractor: extractor.clone(),
        }
        .save(&artifact)
        .expect("save serving artifact");
        let population = dir.join("population.hypp");
        let graphs: Vec<SocialGraph> = dataset.platforms.iter().map(|p| p.graph.clone()).collect();
        let full = PopulationArtifact::from_signals(&signals, &graphs, extractor.fingerprint());
        full.save(&population).expect("save population artifact");
        // One slice per (shard, topology) the parity tests cold-start
        // from: each carries only that shard's profiles and incident
        // edges (plus the global username columns blocking needs).
        for n in [1usize, 2, 4] {
            for s in 0..n {
                full.slice_for_shard(s, n, &trained.model.tasks)
                    .expect("slice")
                    .save(dir.join(format!("population-{n}w-{s}.hypp")))
                    .expect("save sliced artifact");
            }
        }
        World {
            dataset,
            signals,
            extractor,
            trained,
            dir,
            artifact,
            population,
        }
    })
}

fn graphs(dataset: &Dataset) -> Vec<SocialGraph> {
    dataset.platforms.iter().map(|p| p.graph.clone()).collect()
}

fn fast_retry() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 2,
        initial_backoff: Duration::ZERO,
        max_backoff: Duration::ZERO,
    }
}

/// The on-disk slice shard `shard` of a `num_shards`-way fleet boots from.
fn sliced_population(w: &World, shard: usize, num_shards: usize) -> PathBuf {
    w.dir.join(format!("population-{num_shards}w-{shard}.hypp"))
}

/// Spawn one `hydra-shardd` process over an explicit population artifact
/// (full or sliced) and block until its `READY` line. Returns the child
/// plus the endpoint it actually bound.
fn launch_with_population(
    w: &World,
    listen: &str,
    population: &std::path::Path,
    shard: usize,
    num_shards: usize,
) -> (Child, Endpoint) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_hydra-shardd"))
        .arg("--artifact")
        .arg(&w.artifact)
        .arg("--population")
        .arg(population)
        .arg("--shard")
        .arg(shard.to_string())
        .arg("--num-shards")
        .arg(num_shards.to_string())
        .arg("--listen")
        .arg(listen)
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn hydra-shardd");
    let stdout = child.stdout.take().expect("stdout pipe");
    let mut line = String::new();
    std::io::BufReader::new(stdout)
        .read_line(&mut line)
        .expect("READY line");
    let bound = line
        .trim()
        .strip_prefix("READY ")
        .unwrap_or_else(|| panic!("unexpected startup line: {line:?}"))
        .to_string();
    (child, Endpoint::parse(&bound).expect("bound endpoint"))
}

fn launch(w: &World, listen: &str, shard: usize, num_shards: usize) -> (Child, Endpoint) {
    launch_with_population(w, listen, &w.population, shard, num_shards)
}

fn launch_unix(w: &World, tag: &str, shard: usize, num_shards: usize) -> (Child, Endpoint) {
    let sock = w.dir.join(format!("{tag}-{num_shards}w-{shard}.sock"));
    std::fs::remove_file(&sock).ok();
    launch(w, &format!("unix:{}", sock.display()), shard, num_shards)
}

/// Like [`launch_unix`] but the process cold-starts from its *slice* of
/// the population instead of the full artifact.
fn launch_unix_sliced(w: &World, tag: &str, shard: usize, num_shards: usize) -> (Child, Endpoint) {
    let sock = w.dir.join(format!("{tag}-{num_shards}w-{shard}.sock"));
    std::fs::remove_file(&sock).ok();
    launch_with_population(
        w,
        &format!("unix:{}", sock.display()),
        &sliced_population(w, shard, num_shards),
        shard,
        num_shards,
    )
}

fn reap(mut child: Child, ctx: &str) {
    let status = child.wait().expect("wait");
    assert!(status.success(), "{ctx}: shard process exited {status}");
}

fn assert_preds_bitwise(got: &[LinkagePrediction], want: &[LinkagePrediction], ctx: &str) {
    assert_eq!(got.len(), want.len(), "{ctx}: candidate count");
    for (g, w) in got.iter().zip(want.iter()) {
        assert_eq!((g.left, g.right), (w.left, w.right), "{ctx}: pair order");
        assert_eq!(g.score.to_bits(), w.score.to_bits(), "{ctx}: score drift");
        assert_eq!(g.linked, w.linked, "{ctx}: decision");
    }
}

/// The mutation mix every topology is driven through: one single insert
/// (with a back-edge), one 2-account batch (with an intra-history edge),
/// one removal.
fn mutation_mix(w: &World) -> (UserSignals, Vec<(UserSignals, Vec<(u32, f64)>)>) {
    let total = w.dataset.num_accounts(1) as u32;
    let single = w
        .extractor
        .extract_account(AccountSource::account(&w.dataset, 1, 0), total);
    let batch: Vec<(UserSignals, Vec<(u32, f64)>)> = (1..3u32)
        .map(|j| {
            let sig = w
                .extractor
                .extract_account(AccountSource::account(&w.dataset, 1, j), total + j);
            let edges = if j == 1 {
                vec![(total, 1.0)]
            } else {
                Vec::new()
            };
            (sig, edges)
        })
        .collect();
    (single, batch)
}

#[test]
fn process_sharded_matches_thread_sharded_and_single_bitwise() {
    let w = world();
    let lefts: Vec<u32> = (0..w.dataset.num_persons() as u32).collect();
    let total = w.dataset.num_accounts(1) as u32;
    let (sig0, batch) = mutation_mix(w);

    // Never-distributed references, fed the identical history.
    let pristine = LinkageEngine::new(w.trained.model.clone(), &w.signals, graphs(&w.dataset))
        .expect("pristine single");
    let pristine_want = pristine.query_batch(0, &lefts).expect("pristine batch");
    let mut single = LinkageEngine::new(w.trained.model.clone(), &w.signals, graphs(&w.dataset))
        .expect("single");
    single
        .insert_account_with_edges(1, sig0.clone(), &[(0, 2.0)])
        .expect("single insert");
    for (sig, edges) in &batch {
        single
            .insert_account_with_edges(1, sig.clone(), edges)
            .expect("single batch member");
    }
    single.remove_account(1, 5).expect("single remove");
    let want = single.query_batch(0, &lefts).expect("single post-mix");

    for num_shards in [1usize, 2, 4] {
        let mut children = Vec::new();
        let mut endpoints = Vec::new();
        for s in 0..num_shards {
            let (child, ep) = launch_unix(w, "parity", s, num_shards);
            children.push(child);
            endpoints.push(ep);
        }
        let mut dist = DistributedEngine::connect(w.trained.model.clone(), endpoints, fast_retry())
            .expect("connect");
        let mut sharded = ShardedEngine::new(
            w.trained.model.clone(),
            &w.signals,
            graphs(&w.dataset),
            num_shards,
        )
        .expect("thread-sharded");

        // Pre-mutation parity, strict and degraded APIs both.
        let pre = dist.query_batch(0, &lefts).expect("dist pre-mix");
        let pre_threads = sharded.query_batch(0, &lefts).expect("threads pre-mix");
        for ((&left, got), (thread, single_want)) in lefts
            .iter()
            .zip(pre.iter())
            .zip(pre_threads.iter().zip(pristine_want.iter()))
        {
            assert_preds_bitwise(got, single_want, &format!("{num_shards}w pre, left {left}"));
            assert_preds_bitwise(
                thread,
                single_want,
                &format!("{num_shards}t pre, left {left}"),
            );
        }

        // The mutation mix, applied to both sharded topologies.
        let idx = dist
            .insert_account_with_edges(1, sig0.clone(), &[(0, 2.0)])
            .expect("dist insert");
        assert_eq!(idx, total, "distributed insert slot");
        assert_eq!(
            sharded
                .insert_account_with_edges(1, sig0.clone(), &[(0, 2.0)])
                .expect("threads insert"),
            total
        );
        let ids = dist
            .insert_batch_with_edges(1, batch.clone())
            .expect("dist batch insert");
        assert_eq!(ids, vec![total + 1, total + 2], "distributed batch slots");
        assert_eq!(
            sharded
                .insert_batch_with_edges(1, batch.clone())
                .expect("threads batch insert"),
            ids
        );
        dist.remove_account(1, 5).expect("dist remove");
        sharded.remove_account(1, 5).expect("threads remove");
        // An empty batch is a no-op in both topologies: no slot, no
        // sequence number, no epoch.
        assert!(dist
            .insert_batch_with_edges(1, Vec::new())
            .expect("dist empty batch")
            .is_empty());
        assert!(sharded
            .insert_batch_with_edges(1, Vec::new())
            .expect("threads empty batch")
            .is_empty());
        assert_eq!(
            dist.epoch(),
            sharded.snapshot().epoch(),
            "coordinator epoch == thread-sharded epoch"
        );

        // Epoch lockstep across every process, asserted over the wire.
        dist.assert_epochs().expect("epoch lockstep");
        for s in 0..num_shards {
            let st = dist.status(s).expect("status");
            assert_eq!(st.applied_seq, 3, "shard {s}: three mutations applied");
            assert_eq!(st.epoch, dist.epoch(), "shard {s}: epoch");
            assert!(!st.poisoned, "shard {s}: healthy");
        }

        // Post-mix parity: process == thread == single, bitwise — strict
        // and degraded-outcome APIs.
        let post = dist.query_batch(0, &lefts).expect("dist post-mix");
        let post_threads = sharded.query_batch(0, &lefts).expect("threads post-mix");
        let outcomes = dist.query_batch_outcome(0, &lefts).expect("dist outcomes");
        for (i, &left) in lefts.iter().enumerate() {
            assert_preds_bitwise(
                &post[i],
                &want[i],
                &format!("{num_shards}w post, left {left}"),
            );
            assert_preds_bitwise(
                &post_threads[i],
                &want[i],
                &format!("{num_shards}t post, left {left}"),
            );
            assert!(outcomes[i].is_complete(), "left {left}: complete");
            assert_preds_bitwise(
                &outcomes[i].predictions,
                &want[i],
                &format!("{num_shards}w outcome, left {left}"),
            );
        }

        dist.shutdown_all();
        for (s, child) in children.into_iter().enumerate() {
            reap(child, &format!("{num_shards}-way shard {s}"));
        }
    }
}

#[test]
fn killed_shard_degrades_deterministically_and_restart_converges_bitwise() {
    let w = world();
    let lefts: Vec<u32> = (0..w.dataset.num_persons() as u32).collect();
    let total = w.dataset.num_accounts(1) as u32;
    let (sig0, batch) = mutation_mix(w);
    let sig_down = batch[1].0.clone(); // inserted while shard 1 is dead

    let (c0, e0) = launch_unix(w, "kill", 0, 2);
    let (mut c1, e1) = launch_unix(w, "kill", 1, 2);
    let mut dist =
        DistributedEngine::connect(w.trained.model.clone(), vec![e0, e1.clone()], fast_retry())
            .expect("connect");

    // Serve-time history the post-restart replay must reproduce.
    dist.insert_account_with_edges(1, sig0.clone(), &[(0, 2.0)])
        .expect("insert before kill");
    dist.remove_account(1, 5).expect("remove before kill");

    // Kill shard 1's process outright.
    c1.kill().expect("kill");
    c1.wait().expect("reap killed shard");

    // Degraded serving: every left reports exactly the dead shard, twice
    // in a row with identical bits (deterministic degraded outcomes)...
    let out = dist.query_batch_outcome(0, &lefts).expect("degraded batch");
    let again = dist.query_batch_outcome(0, &lefts).expect("degraded twin");
    // ...and bitwise what the in-process engine answers with that shard
    // quarantined — the healthy partition is the same partition.
    let mut twin = ShardedEngine::new(w.trained.model.clone(), &w.signals, graphs(&w.dataset), 2)
        .expect("thread twin");
    twin.insert_account_with_edges(1, sig0.clone(), &[(0, 2.0)])
        .expect("twin insert");
    twin.remove_account(1, 5).expect("twin remove");
    twin.quarantine(1);
    let twin_out = twin.query_batch_outcome(0, &lefts).expect("twin outcomes");
    for (i, &left) in lefts.iter().enumerate() {
        assert_eq!(
            out[i].degraded,
            vec![ShardFailure::Quarantined { shard: 1 }],
            "left {left}: failure report"
        );
        assert_eq!(
            again[i].degraded, out[i].degraded,
            "left {left}: report determinism"
        );
        assert_preds_bitwise(
            &again[i].predictions,
            &out[i].predictions,
            &format!("degraded determinism, left {left}"),
        );
        assert_eq!(
            twin_out[i].degraded, out[i].degraded,
            "left {left}: twin report"
        );
        assert_preds_bitwise(
            &out[i].predictions,
            &twin_out[i].predictions,
            &format!("process vs thread degraded, left {left}"),
        );
    }
    // The strict path refuses, naming the dead shard.
    match dist.query(0, lefts[0]) {
        Err(hydra_net::NetError::Degraded { failed }) => assert_eq!(failed, vec![1]),
        other => panic!("expected degraded refusal, got {other:?}"),
    }

    // Mutations still land on the healthy shard while one is down.
    let idx = dist
        .insert_account_with_edges(1, sig_down.clone(), &[])
        .expect("insert while degraded");
    assert_eq!(idx, total + 1);

    // Restart the shard from the same artifacts: cold start knows nothing
    // of the three mutations — the dial handshake replays them, after
    // which answers are bitwise a never-faulted deployment's.
    let (c1b, e1b) = launch(w, &format!("unix:{}", unix_path(&e1)), 1, 2);
    assert_eq!(e1b, e1, "restart binds the same endpoint");
    let post = dist.query_batch(0, &lefts).expect("complete after restart");
    let st = dist.status(1).expect("restarted status");
    assert_eq!(st.applied_seq, 3, "replay caught the restarted shard up");
    dist.assert_epochs().expect("epoch lockstep after replay");

    let mut reference = LinkageEngine::new(w.trained.model.clone(), &w.signals, graphs(&w.dataset))
        .expect("reference");
    reference
        .insert_account_with_edges(1, sig0, &[(0, 2.0)])
        .expect("reference insert");
    reference.remove_account(1, 5).expect("reference remove");
    reference
        .insert_account_with_edges(1, sig_down, &[])
        .expect("reference second insert");
    for (i, &left) in lefts.iter().enumerate() {
        let want = reference.query(0, left).expect("reference query");
        assert_preds_bitwise(&post[i], &want, &format!("post-restart, left {left}"));
    }

    dist.shutdown_all();
    reap(c0, "shard 0");
    reap(c1b, "restarted shard 1");
}

fn unix_path(e: &Endpoint) -> String {
    match e {
        Endpoint::Unix(p) => p.display().to_string(),
        Endpoint::Tcp(addr) => panic!("expected unix endpoint, got tcp:{addr}"),
    }
}

#[test]
fn sliced_artifact_fleet_matches_single_bitwise_at_every_width() {
    let w = world();
    let lefts: Vec<u32> = (0..w.dataset.num_persons() as u32).collect();
    let total = w.dataset.num_accounts(1) as u32;
    let (sig0, batch) = mutation_mix(w);

    // Never-distributed references, fed the identical history. The full
    // fleet is pinned to these same bits by the first test, so sliced ==
    // single here gives sliced == full by transitivity.
    let pristine = LinkageEngine::new(w.trained.model.clone(), &w.signals, graphs(&w.dataset))
        .expect("pristine single");
    let pristine_want = pristine.query_batch(0, &lefts).expect("pristine batch");
    let mut single = LinkageEngine::new(w.trained.model.clone(), &w.signals, graphs(&w.dataset))
        .expect("single");
    single
        .insert_account_with_edges(1, sig0.clone(), &[(0, 2.0)])
        .expect("single insert");
    for (sig, edges) in &batch {
        single
            .insert_account_with_edges(1, sig.clone(), edges)
            .expect("single batch member");
    }
    single.remove_account(1, 5).expect("single remove");
    let want = single.query_batch(0, &lefts).expect("single post-mix");

    for num_shards in [1usize, 2, 4] {
        let mut children = Vec::new();
        let mut endpoints = Vec::new();
        for s in 0..num_shards {
            let (child, ep) = launch_unix_sliced(w, "sliced", s, num_shards);
            children.push(child);
            endpoints.push(ep);
        }
        let mut dist = DistributedEngine::connect(w.trained.model.clone(), endpoints, fast_retry())
            .expect("connect sliced fleet");

        // Pre-mutation: every process booted from 1/N of the profiles,
        // yet blocking (global stop-gram stats from the full username
        // columns) and scoring land on the single engine's bits.
        let pre = dist.query_batch(0, &lefts).expect("sliced pre-mix");
        for (&left, got) in lefts.iter().zip(pre.iter().zip(pristine_want.iter())) {
            assert_preds_bitwise(
                got.0,
                got.1,
                &format!("sliced {num_shards}w pre, left {left}"),
            );
        }

        // The same mutation mix every other topology is driven through.
        assert_eq!(
            dist.insert_account_with_edges(1, sig0.clone(), &[(0, 2.0)])
                .expect("sliced insert"),
            total
        );
        assert_eq!(
            dist.insert_batch_with_edges(1, batch.clone())
                .expect("sliced batch insert"),
            vec![total + 1, total + 2]
        );
        dist.remove_account(1, 5).expect("sliced remove");
        dist.assert_epochs().expect("epoch lockstep");
        for s in 0..num_shards {
            let st = dist.status(s).expect("status");
            assert_eq!(st.applied_seq, 3, "sliced shard {s}: mutations applied");
            assert!(!st.poisoned, "sliced shard {s}: healthy");
        }

        let post = dist.query_batch(0, &lefts).expect("sliced post-mix");
        let outcomes = dist
            .query_batch_outcome(0, &lefts)
            .expect("sliced outcomes");
        for (i, &left) in lefts.iter().enumerate() {
            assert_preds_bitwise(
                &post[i],
                &want[i],
                &format!("sliced {num_shards}w post, left {left}"),
            );
            assert!(outcomes[i].is_complete(), "left {left}: complete");
            assert_preds_bitwise(
                &outcomes[i].predictions,
                &want[i],
                &format!("sliced {num_shards}w outcome, left {left}"),
            );
        }

        dist.shutdown_all();
        for (s, child) in children.into_iter().enumerate() {
            reap(child, &format!("sliced {num_shards}-way shard {s}"));
        }
    }
}

#[test]
fn sliced_fleet_killed_shard_degrades_and_restart_converges_bitwise() {
    let w = world();
    let lefts: Vec<u32> = (0..w.dataset.num_persons() as u32).collect();
    let total = w.dataset.num_accounts(1) as u32;
    let (sig0, batch) = mutation_mix(w);
    let sig_down = batch[1].0.clone();

    let (c0, e0) = launch_unix_sliced(w, "sliced-kill", 0, 2);
    let (mut c1, e1) = launch_unix_sliced(w, "sliced-kill", 1, 2);
    let mut dist =
        DistributedEngine::connect(w.trained.model.clone(), vec![e0, e1.clone()], fast_retry())
            .expect("connect");

    // Serve-time history the post-restart replay must reproduce on a
    // process that boots knowing only its slice.
    dist.insert_account_with_edges(1, sig0.clone(), &[(0, 2.0)])
        .expect("insert before kill");
    dist.remove_account(1, 5).expect("remove before kill");

    c1.kill().expect("kill");
    c1.wait().expect("reap killed shard");

    // Degraded serving from the surviving slice matches the in-process
    // engine with that shard quarantined, bit for bit.
    let out = dist.query_batch_outcome(0, &lefts).expect("degraded batch");
    let mut twin = ShardedEngine::new(w.trained.model.clone(), &w.signals, graphs(&w.dataset), 2)
        .expect("thread twin");
    twin.insert_account_with_edges(1, sig0.clone(), &[(0, 2.0)])
        .expect("twin insert");
    twin.remove_account(1, 5).expect("twin remove");
    twin.quarantine(1);
    let twin_out = twin.query_batch_outcome(0, &lefts).expect("twin outcomes");
    for (i, &left) in lefts.iter().enumerate() {
        assert_eq!(
            out[i].degraded,
            vec![ShardFailure::Quarantined { shard: 1 }],
            "left {left}: failure report"
        );
        assert_preds_bitwise(
            &out[i].predictions,
            &twin_out[i].predictions,
            &format!("sliced degraded vs thread twin, left {left}"),
        );
    }

    // Mutations land on the healthy shard while one is down; the restart
    // cold-starts from the *slice* and catches up via oplog replay.
    assert_eq!(
        dist.insert_account_with_edges(1, sig_down.clone(), &[])
            .expect("insert while degraded"),
        total + 1
    );
    let (c1b, e1b) = launch_with_population(
        w,
        &format!("unix:{}", unix_path(&e1)),
        &sliced_population(w, 1, 2),
        1,
        2,
    );
    assert_eq!(e1b, e1, "restart binds the same endpoint");
    let post = dist.query_batch(0, &lefts).expect("complete after restart");
    assert_eq!(
        dist.status(1).expect("restarted status").applied_seq,
        3,
        "replay caught the restarted shard up"
    );
    dist.assert_epochs().expect("epoch lockstep after replay");

    let mut reference = LinkageEngine::new(w.trained.model.clone(), &w.signals, graphs(&w.dataset))
        .expect("reference");
    reference
        .insert_account_with_edges(1, sig0, &[(0, 2.0)])
        .expect("reference insert");
    reference.remove_account(1, 5).expect("reference remove");
    reference
        .insert_account_with_edges(1, sig_down, &[])
        .expect("reference second insert");
    for (i, &left) in lefts.iter().enumerate() {
        let want = reference.query(0, left).expect("reference query");
        assert_preds_bitwise(
            &post[i],
            &want,
            &format!("sliced post-restart, left {left}"),
        );
    }

    dist.shutdown_all();
    reap(c0, "sliced shard 0");
    reap(c1b, "restarted sliced shard 1");
}

#[test]
fn mismatched_slice_topology_refuses_to_start() {
    let w = world();
    // Shard 1-of-2's slice handed to a process claiming to be shard
    // 0-of-2: the artifact's topology header must refuse the cold start
    // before the socket ever binds.
    let sock = w.dir.join("mismatch.sock");
    std::fs::remove_file(&sock).ok();
    let status = Command::new(env!("CARGO_BIN_EXE_hydra-shardd"))
        .arg("--artifact")
        .arg(&w.artifact)
        .arg("--population")
        .arg(sliced_population(w, 1, 2))
        .arg("--shard")
        .arg("0")
        .arg("--num-shards")
        .arg("2")
        .arg("--listen")
        .arg(format!("unix:{}", sock.display()))
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .expect("spawn hydra-shardd");
    assert!(
        !status.success(),
        "wrong slice topology must refuse to serve"
    );
    assert!(!sock.exists(), "refused cold start never binds the socket");
}

#[test]
fn tcp_endpoint_serves_the_same_bits_as_unix() {
    let w = world();
    let lefts: Vec<u32> = (0..w.dataset.num_persons() as u32).collect();
    // Ephemeral port: the actual address comes back on the READY line.
    let (child, ep) = launch(w, "tcp:127.0.0.1:0", 0, 1);
    assert!(matches!(ep, Endpoint::Tcp(_)), "bound {ep}");
    let mut dist = DistributedEngine::connect(w.trained.model.clone(), vec![ep], fast_retry())
        .expect("connect over tcp");
    let single = LinkageEngine::new(w.trained.model.clone(), &w.signals, graphs(&w.dataset))
        .expect("single");
    let got = dist.query_batch(0, &lefts).expect("tcp batch");
    let want = single.query_batch(0, &lefts).expect("single batch");
    for (i, &left) in lefts.iter().enumerate() {
        assert_preds_bitwise(&got[i], &want[i], &format!("tcp, left {left}"));
    }
    dist.shutdown_all();
    reap(child, "tcp shard");
}
