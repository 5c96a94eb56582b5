//! Deterministic fault sweeps over the distributed coordinator — the
//! socket-layer mirror of `hydra-core`'s `tests/fault_sweeps.rs`.
//!
//! Servers run **in-thread** here (the process boundary is exercised by
//! `tests/process_parity.rs`) so `hydra-fault` plans installed in the test
//! process are visible to both sides of the socket:
//!
//! * `hydra_fault::record` enumerates every client site a full
//!   connect/query/insert/remove scenario crosses (`net.connect.{s}`,
//!   `net.write.{s}`, `net.read.{s}` — per shard); a **transient** armed
//!   at each one is retried under the bounded deterministic schedule to
//!   an outcome bitwise identical to the never-faulted run;
//! * a **hard** fault at any client site degrades exactly that shard for
//!   exactly that call — deterministically, and bitwise what the
//!   in-process engine answers with the same shard quarantined — then the
//!   next call re-dials and heals to bitwise parity;
//! * a **panic** armed at a server's `net.serve.{s}` site poisons that
//!   replica (per-left `Panicked`, then `Quarantined`), mutations still
//!   apply while poisoned, and `recover()` rebuilds to bitwise parity;
//! * transients outlasting the retry budget on a mutation leave the op
//!   converged anyway (dial-replay is the backstop), and seeded transient
//!   streams on the read path never change an answer bit.

use hydra_core::artifact::TaskSpec;
use hydra_core::engine::LinkageEngine;
use hydra_core::ingest::SignalExtractor;
use hydra_core::model::{Hydra, HydraConfig, LinkagePrediction, PairTask, TrainedHydra};
use hydra_core::shard::{QueryOutcome, RetryPolicy, ShardFailure, ShardReplica, ShardedEngine};
use hydra_core::signals::{SignalConfig, Signals, UserSignals};
use hydra_core::source::AccountSource;
use hydra_datagen::{Dataset, DatasetConfig};
use hydra_fault::{install, record, FaultKind, FaultPlan};
use hydra_graph::SocialGraph;
use hydra_net::coordinator::Endpoint;
use hydra_net::{DistributedEngine, NetError, PopulationArtifact, ServeEnd, ShardServer};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

const NUM_SHARDS: usize = 2;
/// The lefts every scenario queries — small on purpose: each scored left
/// is one `net.serve.{s}` hit, and the sweep is quadratic in the log.
const PROBE: [u32; 3] = [0, 5, 11];

struct World {
    dataset: Dataset,
    signals: Signals,
    extractor: SignalExtractor,
    trained: TrainedHydra,
}

fn world() -> &'static World {
    static WORLD: OnceLock<World> = OnceLock::new();
    WORLD.get_or_init(|| {
        let dataset = Dataset::generate(DatasetConfig::english(24, 0xFA57));
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
        World {
            dataset,
            signals,
            extractor,
            trained,
        }
    })
}

/// Serialize the tests in this binary: fault plans are process-wide, and
/// an unscoped setup query racing another test's armed `net.*` site would
/// consume its one-shot.
fn serial() -> std::sync::MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn graphs(dataset: &Dataset) -> Vec<SocialGraph> {
    dataset.platforms.iter().map(|p| p.graph.clone()).collect()
}

fn retry() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 3,
        initial_backoff: Duration::ZERO,
        max_backoff: Duration::ZERO,
    }
}

struct Net {
    endpoints: Vec<Endpoint>,
    handles: Vec<std::thread::JoinHandle<Result<(), NetError>>>,
}

/// Build shard `s`'s replica the way a shard process cold-starting from
/// its *sliced* population artifact would: slice, round-trip the bytes,
/// then rebuild global blocking statistics from the username columns.
fn sliced_replica(w: &World, s: usize, num_shards: usize) -> ShardReplica {
    let tasks: Vec<TaskSpec> = w.trained.model.tasks.clone();
    let full = PopulationArtifact::from_signals(
        &w.signals,
        &graphs(&w.dataset),
        w.extractor.fingerprint(),
    );
    let slice = full.slice_for_shard(s, num_shards, &tasks).expect("slice");
    let mut slice = PopulationArtifact::from_bytes(&slice.to_bytes()).expect("slice decode");
    let usernames = std::mem::take(&mut slice.usernames);
    let (signals, graphs) = slice.into_signals(w.extractor.lda().clone());
    ShardReplica::with_usernames(
        w.trained.model.clone(),
        &signals,
        graphs,
        usernames,
        s,
        num_shards,
    )
    .expect("sliced replica")
}

/// Spawn `NUM_SHARDS` in-thread servers on fresh unix sockets, each over
/// the full population or its own slice of it.
fn spawn_net_from(w: &World, sliced: bool) -> Net {
    static RUN: AtomicUsize = AtomicUsize::new(0);
    let run = RUN.fetch_add(1, Ordering::Relaxed);
    let mut endpoints = Vec::new();
    let mut handles = Vec::new();
    for s in 0..NUM_SHARDS {
        let replica = if sliced {
            sliced_replica(w, s, NUM_SHARDS)
        } else {
            ShardReplica::new(
                w.trained.model.clone(),
                &w.signals,
                graphs(&w.dataset),
                s,
                NUM_SHARDS,
            )
            .expect("replica")
        };
        let mut server = ShardServer::new(replica, w.trained.model.fingerprint());
        let sock =
            std::env::temp_dir().join(format!("hynet-fs-{}-{run}-{s}.sock", std::process::id()));
        let endpoint = Endpoint::Unix(sock);
        let ep = endpoint.clone();
        let (tx, rx) = std::sync::mpsc::channel();
        handles.push(std::thread::spawn(move || {
            server.run(&ep, |_| {
                tx.send(()).ok();
            })
        }));
        rx.recv().expect("server binds");
        endpoints.push(endpoint);
    }
    Net { endpoints, handles }
}

fn spawn_net(w: &World) -> Net {
    spawn_net_from(w, false)
}

fn teardown(mut eng: DistributedEngine, net: Net) {
    eng.shutdown_all();
    for h in net.handles {
        h.join().expect("server thread").expect("clean server exit");
    }
}

fn assert_preds_bitwise(got: &[LinkagePrediction], want: &[LinkagePrediction], ctx: &str) {
    assert_eq!(got.len(), want.len(), "{ctx}: candidate count");
    for (g, w) in got.iter().zip(want.iter()) {
        assert_eq!((g.left, g.right), (w.left, w.right), "{ctx}: pair order");
        assert_eq!(g.score.to_bits(), w.score.to_bits(), "{ctx}: score drift");
        assert_eq!(g.linked, w.linked, "{ctx}: decision");
    }
}

fn assert_outcomes_bitwise(got: &[QueryOutcome], want: &[QueryOutcome], ctx: &str) {
    assert_eq!(got.len(), want.len(), "{ctx}: outcome count");
    for (i, (g, w)) in got.iter().zip(want.iter()).enumerate() {
        assert_eq!(g.degraded, w.degraded, "{ctx}, left #{i}: failure report");
        assert_preds_bitwise(&g.predictions, &w.predictions, &format!("{ctx}, left #{i}"));
    }
}

/// Silence the default panic hook while `f` runs (injected server panics
/// would spray backtraces). Tests here hold the `serial()` lock, so the
/// global hook swap cannot race.
fn with_quiet_panics<R>(f: impl FnOnce() -> R) -> R {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let out = f();
    std::panic::set_hook(prev);
    out
}

/// The scenario every sweep replays: query, insert (with an edge), remove,
/// query again. Returns both query outcomes.
fn scenario(
    eng: &mut DistributedEngine,
    sig: &UserSignals,
    expect_base: u32,
) -> (Vec<QueryOutcome>, Vec<QueryOutcome>) {
    let before = eng.query_batch_outcome(0, &PROBE).expect("first query");
    let idx = eng
        .insert_account_with_edges(1, sig.clone(), &[(0, 2.0)])
        .expect("insert");
    assert_eq!(idx, expect_base, "insert slot");
    eng.remove_account(1, 5).expect("remove");
    let after = eng.query_batch_outcome(0, &PROBE).expect("second query");
    (before, after)
}

#[test]
fn client_site_transients_retry_to_bitwise_parity_at_every_hit() {
    let _serial = serial();
    let w = world();
    let total = w.dataset.num_accounts(1) as u32;
    let sig = w
        .extractor
        .extract_account(AccountSource::account(&w.dataset, 1, 0), total);

    // Reference run + fault-surface enumeration in one recorded pass.
    let net = spawn_net(w);
    let endpoints = net.endpoints.clone();
    let ((reference, eng), log) = record(|| {
        let mut eng = DistributedEngine::connect(w.trained.model.clone(), endpoints, retry())
            .expect("connect");
        let outcome = scenario(&mut eng, &sig, total);
        (outcome, eng)
    });
    teardown(eng, net);
    for out in reference.0.iter().chain(reference.1.iter()) {
        assert!(out.is_complete(), "reference run is never degraded");
    }
    let client_sites: Vec<(String, u64)> = log
        .iter()
        .filter(|(site, _)| {
            site.starts_with("net.connect.")
                || site.starts_with("net.write.")
                || site.starts_with("net.read.")
        })
        .cloned()
        .collect();
    // Sanity: the surface covers all three operations on every shard.
    for s in 0..NUM_SHARDS {
        for op in ["connect", "write", "read"] {
            assert!(
                client_sites
                    .iter()
                    .any(|(site, _)| site == &format!("net.{op}.{s}")),
                "scenario never crossed net.{op}.{s}; sites: {client_sites:?}"
            );
        }
    }

    // The sweep: one transient per (site, hit), full scenario each time,
    // bitwise parity demanded at the end.
    for (site, hit) in &client_sites {
        let net = spawn_net(w);
        let endpoints = net.endpoints.clone();
        let scope = install(FaultPlan::new().one_shot(site, *hit, FaultKind::Transient));
        let mut eng = DistributedEngine::connect(w.trained.model.clone(), endpoints, retry())
            .unwrap_or_else(|e| panic!("connect under transient at {site}#{hit}: {e}"));
        let (before, after) = scenario(&mut eng, &sig, total);
        drop(scope);
        assert_outcomes_bitwise(
            &before,
            &reference.0,
            &format!("transient {site}#{hit}, pre"),
        );
        assert_outcomes_bitwise(
            &after,
            &reference.1,
            &format!("transient {site}#{hit}, post"),
        );
        teardown(eng, net);
    }
}

#[test]
fn hard_client_faults_degrade_one_shard_deterministically_then_heal() {
    let _serial = serial();
    let w = world();
    let net = spawn_net(w);
    let mut eng =
        DistributedEngine::connect(w.trained.model.clone(), net.endpoints.clone(), retry())
            .expect("connect");
    let reference = eng.query_batch_outcome(0, &PROBE).expect("reference");

    // In-process twins with one shard quarantined: the surviving
    // partition must answer the same bits.
    let mut twins: Vec<Vec<QueryOutcome>> = Vec::new();
    for s in 0..NUM_SHARDS {
        let mut sharded = ShardedEngine::new(
            w.trained.model.clone(),
            &w.signals,
            graphs(&w.dataset),
            NUM_SHARDS,
        )
        .expect("twin");
        sharded.quarantine(s);
        twins.push(
            sharded
                .query_batch_outcome(0, &PROBE)
                .expect("twin outcome"),
        );
    }

    for s in 0..NUM_SHARDS {
        // Three ways to lose shard `s` mid-query: the write fails hard,
        // the read fails hard, or a transient read forces a re-dial whose
        // connect fails hard.
        let plans: Vec<(&str, FaultPlan)> = vec![
            (
                "write",
                FaultPlan::new().one_shot(&format!("net.write.{s}"), 0, FaultKind::Io),
            ),
            (
                "read",
                FaultPlan::new().one_shot(&format!("net.read.{s}"), 0, FaultKind::Io),
            ),
            (
                "connect",
                FaultPlan::new()
                    .one_shot(&format!("net.read.{s}"), 0, FaultKind::Transient)
                    .one_shot(&format!("net.connect.{s}"), 0, FaultKind::Io),
            ),
        ];
        for (name, plan) in plans {
            let run = |eng: &mut DistributedEngine| {
                let scope = install(plan.clone());
                let out = eng.query_batch_outcome(0, &PROBE).expect("degraded query");
                drop(scope);
                out
            };
            let out = run(&mut eng);
            for (i, o) in out.iter().enumerate() {
                assert_eq!(
                    o.degraded,
                    vec![ShardFailure::Quarantined { shard: s }],
                    "{name} fault, shard {s}, left #{i}"
                );
            }
            assert_outcomes_bitwise(&out, &twins[s], &format!("{name} fault vs twin, shard {s}"));
            // Identical plan, identical bits: the degradation is a pure
            // function of the fault schedule.
            let again = run(&mut eng);
            assert_outcomes_bitwise(
                &again,
                &out,
                &format!("{name} fault determinism, shard {s}"),
            );
            // No plan: the next call re-dials and serves complete again.
            let healed = eng.query_batch_outcome(0, &PROBE).expect("healed query");
            assert_outcomes_bitwise(
                &healed,
                &reference,
                &format!("healed after {name}, shard {s}"),
            );
        }
    }
    teardown(eng, net);
}

#[test]
fn server_panic_poisons_the_shard_and_recovery_is_bitwise() {
    let _serial = serial();
    let w = world();
    let total = w.dataset.num_accounts(1) as u32;
    let net = spawn_net(w);
    let mut eng =
        DistributedEngine::connect(w.trained.model.clone(), net.endpoints.clone(), retry())
            .expect("connect");

    // A single engine fed the same history stays the bitwise referee.
    let mut reference = LinkageEngine::new(w.trained.model.clone(), &w.signals, graphs(&w.dataset))
        .expect("reference");

    for (round, s) in (0..NUM_SHARDS).enumerate() {
        let scope =
            install(FaultPlan::new().one_shot(&format!("net.serve.{s}"), 0, FaultKind::Panic));
        let out =
            with_quiet_panics(|| eng.query_batch_outcome(0, &PROBE).expect("poisoning query"));
        drop(scope);
        // First scored left dies in the panic; the rest of the batch sees
        // the already-poisoned replica. The healthy shard answers all.
        match &out[0].degraded[..] {
            [ShardFailure::Panicked { shard, message }] => {
                assert_eq!(*shard, s);
                assert!(
                    message.contains("injected fault in shard server"),
                    "panic payload surfaces: {message}"
                );
            }
            other => panic!("expected one panic report, got {other:?}"),
        }
        for (i, o) in out.iter().enumerate().skip(1) {
            assert_eq!(
                o.degraded,
                vec![ShardFailure::Quarantined { shard: s }],
                "left #{i} after the panic"
            );
        }
        assert!(
            eng.status(s).expect("status").poisoned,
            "shard {s} poisoned"
        );

        // Mutations still apply to a poisoned shard — exactly the
        // in-process quarantine semantics.
        let base = total + round as u32;
        let sig = w
            .extractor
            .extract_account(AccountSource::account(&w.dataset, 1, round as u32), base);
        assert_eq!(
            eng.insert_account_with_edges(1, sig.clone(), &[])
                .expect("insert while poisoned"),
            base
        );
        reference
            .insert_account_with_edges(1, sig, &[])
            .expect("reference insert");

        // Recovery rebuilds the partition (replaying the insert) and
        // clears poison; answers return to bitwise parity.
        eng.recover().expect("recover");
        assert!(
            !eng.status(s).expect("status").poisoned,
            "shard {s} recovered"
        );
        eng.assert_epochs().expect("epoch lockstep after recovery");
        let healed = eng.query_batch_outcome(0, &PROBE).expect("healed query");
        for (o, &left) in healed.iter().zip(PROBE.iter()) {
            assert!(o.is_complete(), "left {left} complete after recovery");
            let want = reference.query(0, left).expect("reference query");
            assert_preds_bitwise(
                &o.predictions,
                &want,
                &format!("post-recovery, shard {s}, left {left}"),
            );
        }
    }
    teardown(eng, net);
}

#[test]
fn exhausted_mutation_transients_converge_via_dial_replay() {
    let _serial = serial();
    let w = world();
    let total = w.dataset.num_accounts(1) as u32;
    let sig = w
        .extractor
        .extract_account(AccountSource::account(&w.dataset, 1, 0), total);
    let net = spawn_net(w);
    let mut eng =
        DistributedEngine::connect(w.trained.model.clone(), net.endpoints.clone(), retry())
            .expect("connect");

    // More write transients than the retry budget on shard 1: every
    // attempt's write dies, yet each re-dial's handshake replay has
    // already delivered the op — the shard converges anyway, and the
    // caller still gets its base from shard 0.
    let scope = install(
        FaultPlan::new()
            .one_shot("net.write.1", 0, FaultKind::Transient)
            .one_shot("net.write.1", 1, FaultKind::Transient)
            .one_shot("net.write.1", 2, FaultKind::Transient),
    );
    let idx = eng
        .insert_account_with_edges(1, sig.clone(), &[(0, 2.0)])
        .expect("insert with exhausted budget");
    drop(scope);
    assert_eq!(idx, total);
    let st = eng.status(1).expect("status");
    assert_eq!(st.applied_seq, 1, "replay delivered the op to shard 1");
    // An empty batch is a coordinator-side no-op: the fleet stays in
    // epoch lockstep and no sequence number is spent.
    assert!(eng
        .insert_batch_with_edges(1, Vec::new())
        .expect("empty batch")
        .is_empty());
    eng.assert_epochs().expect("epoch lockstep");
    assert_eq!(
        eng.status(0).expect("status").applied_seq,
        1,
        "no seq spent"
    );

    let mut single = LinkageEngine::new(w.trained.model.clone(), &w.signals, graphs(&w.dataset))
        .expect("single");
    single
        .insert_account_with_edges(1, sig, &[(0, 2.0)])
        .expect("single insert");
    let out = eng
        .query_batch_outcome(0, &PROBE)
        .expect("post-insert query");
    for (o, &left) in out.iter().zip(PROBE.iter()) {
        assert!(o.is_complete(), "left {left} complete");
        let want = single.query(0, left).expect("single query");
        assert_preds_bitwise(&o.predictions, &want, &format!("converged, left {left}"));
    }

    // A seeded transient stream on the read path (deterministic by seed)
    // never changes an answer bit either.
    let scope = install(FaultPlan::new().seeded_transients("net.read.0", 0xBEEF, 2, 3));
    for round in 0..3 {
        let noisy = eng.query_batch_outcome(0, &PROBE).expect("noisy query");
        assert_outcomes_bitwise(&noisy, &out, &format!("seeded stream, round {round}"));
    }
    drop(scope);
    teardown(eng, net);
}

#[test]
fn sliced_replicas_answer_bitwise_and_transients_retry() {
    let _serial = serial();
    let w = world();
    let total = w.dataset.num_accounts(1) as u32;
    let sig = w
        .extractor
        .extract_account(AccountSource::account(&w.dataset, 1, 0), total);

    // Full-artifact fleet: the bitwise referee.
    let net = spawn_net(w);
    let mut eng =
        DistributedEngine::connect(w.trained.model.clone(), net.endpoints.clone(), retry())
            .expect("connect full");
    let reference = scenario(&mut eng, &sig, total);
    teardown(eng, net);

    // Sliced fleet, recorded: every shard cold-starts from its own slice
    // (1/N profiles and edges, full username columns), yet the whole
    // scenario — queries, insert with an edge, remove — lands on the same
    // bits. The recording also enumerates the sliced fleet's client
    // fault surface for the sweep below.
    let net = spawn_net_from(w, true);
    let endpoints = net.endpoints.clone();
    let ((sliced_out, eng), log) = record(|| {
        let mut eng = DistributedEngine::connect(w.trained.model.clone(), endpoints, retry())
            .expect("connect sliced");
        let outcome = scenario(&mut eng, &sig, total);
        (outcome, eng)
    });
    teardown(eng, net);
    for out in sliced_out.0.iter().chain(sliced_out.1.iter()) {
        assert!(out.is_complete(), "sliced reference run is never degraded");
    }
    assert_outcomes_bitwise(&sliced_out.0, &reference.0, "sliced fleet, pre-mutation");
    assert_outcomes_bitwise(&sliced_out.1, &reference.1, "sliced fleet, post-mutation");

    // The tentpole parity contract includes injected `net.*` faults: a
    // transient at every (site, hit) the sliced scenario crosses retries
    // back to the very same bits.
    let client_sites: Vec<(String, u64)> = log
        .iter()
        .filter(|(site, _)| {
            site.starts_with("net.connect.")
                || site.starts_with("net.write.")
                || site.starts_with("net.read.")
        })
        .cloned()
        .collect();
    assert!(
        !client_sites.is_empty(),
        "sliced scenario crossed no client sites"
    );
    for (site, hit) in &client_sites {
        let net = spawn_net_from(w, true);
        let endpoints = net.endpoints.clone();
        let scope = install(FaultPlan::new().one_shot(site, *hit, FaultKind::Transient));
        let mut eng = DistributedEngine::connect(w.trained.model.clone(), endpoints, retry())
            .unwrap_or_else(|e| panic!("sliced connect under transient at {site}#{hit}: {e}"));
        let (before, after) = scenario(&mut eng, &sig, total);
        drop(scope);
        assert_outcomes_bitwise(
            &before,
            &reference.0,
            &format!("sliced transient {site}#{hit}, pre"),
        );
        assert_outcomes_bitwise(
            &after,
            &reference.1,
            &format!("sliced transient {site}#{hit}, post"),
        );
        teardown(eng, net);
    }
}

#[test]
fn hung_accept_dial_times_out_and_degrades_deterministically() {
    let _serial = serial();
    let w = world();

    // Shard 0: a normal server. Shard 1: serves only while `healthy` is
    // set; otherwise accepted connections fall into a black hole — the
    // kernel completes the client's connect via the listener backlog,
    // but no `HelloAck` ever comes back. Without a dial budget the
    // handshake read would block the whole scatter indefinitely; with
    // one, the dial times out, the bounded retry schedule runs dry, and
    // the shard degrades exactly like any other hard loss.
    let run = {
        static RUN: AtomicUsize = AtomicUsize::new(0);
        RUN.fetch_add(1, Ordering::Relaxed)
    };
    let sock0 = std::env::temp_dir().join(format!("hynet-bh-{}-{run}-0.sock", std::process::id()));
    let ep0 = Endpoint::Unix(sock0);
    let mut server0 = ShardServer::new(
        ShardReplica::new(
            w.trained.model.clone(),
            &w.signals,
            graphs(&w.dataset),
            0,
            NUM_SHARDS,
        )
        .expect("replica 0"),
        w.trained.model.fingerprint(),
    );
    let ep = ep0.clone();
    let (tx, rx) = std::sync::mpsc::channel();
    let h0 = std::thread::spawn(move || {
        server0.run(&ep, |_| {
            tx.send(()).ok();
        })
    });
    rx.recv().expect("shard 0 binds");

    let sock1 = std::env::temp_dir().join(format!("hynet-bh-{}-{run}-1.sock", std::process::id()));
    let _ = std::fs::remove_file(&sock1);
    let listener = std::os::unix::net::UnixListener::bind(&sock1).expect("shard 1 binds");
    let ep1 = Endpoint::Unix(sock1.clone());
    let healthy = Arc::new(AtomicBool::new(true));
    let flag = healthy.clone();
    let mut server1 = ShardServer::new(
        ShardReplica::new(
            w.trained.model.clone(),
            &w.signals,
            graphs(&w.dataset),
            1,
            NUM_SHARDS,
        )
        .expect("replica 1"),
        w.trained.model.fingerprint(),
    );
    let h1 = std::thread::spawn(move || -> Result<(), NetError> {
        // Black-holed connections are *held*, not dropped: a drop would
        // surface as a prompt EOF, and this test is about the hang.
        let mut doomed = Vec::new();
        loop {
            let (mut stream, _) = listener.accept().map_err(NetError::Io)?;
            if flag.load(Ordering::SeqCst) {
                match server1.serve(&mut stream)? {
                    ServeEnd::Shutdown => break,
                    ServeEnd::Disconnected => continue,
                }
            } else {
                doomed.push(stream);
            }
        }
        std::fs::remove_file(&sock1).ok();
        drop(doomed);
        Ok(())
    });

    let mut eng = DistributedEngine::connect(w.trained.model.clone(), vec![ep0, ep1], retry())
        .expect("connect");
    eng.set_dial_timeout(Some(Duration::from_millis(50)));
    let reference = eng.query_batch_outcome(0, &PROBE).expect("reference");
    for out in &reference {
        assert!(out.is_complete(), "reference run is never degraded");
    }

    // The in-process twin with shard 1 quarantined: the degraded fleet
    // must answer exactly these bits.
    let mut sharded = ShardedEngine::new(
        w.trained.model.clone(),
        &w.signals,
        graphs(&w.dataset),
        NUM_SHARDS,
    )
    .expect("twin");
    sharded.quarantine(1);
    let twin = sharded
        .query_batch_outcome(0, &PROBE)
        .expect("twin outcome");

    // Sweep both fault sites that force a re-dial mid-query: a transient
    // write (fails before any reply is owed) and a transient read (the
    // reply path). Each re-dial lands in the black hole.
    for (name, site) in [("write", "net.write.1"), ("read", "net.read.1")] {
        healthy.store(false, Ordering::SeqCst);
        let scope = install(FaultPlan::new().one_shot(site, 0, FaultKind::Transient));
        let started = std::time::Instant::now();
        let out = eng.query_batch_outcome(0, &PROBE).expect("degraded query");
        drop(scope);
        let elapsed = started.elapsed();
        assert!(
            elapsed < Duration::from_secs(2),
            "{name}: dial budget bounds the hung accept, took {elapsed:?}"
        );
        for (i, o) in out.iter().enumerate() {
            assert_eq!(
                o.degraded,
                vec![ShardFailure::Quarantined { shard: 1 }],
                "{name} into black hole, left #{i}"
            );
        }
        assert_outcomes_bitwise(&out, &twin, &format!("{name} into black hole vs twin"));
        // No plan, no live connection: the re-dial hits the black hole
        // again and the degradation repeats bit-for-bit.
        let again = eng.query_batch_outcome(0, &PROBE).expect("still degraded");
        assert_outcomes_bitwise(&again, &out, &format!("{name} black-hole determinism"));
        // Flip the shard back to serving: the next call re-dials,
        // replays, and heals to the reference bits.
        healthy.store(true, Ordering::SeqCst);
        let healed = eng.query_batch_outcome(0, &PROBE).expect("healed query");
        assert_outcomes_bitwise(&healed, &reference, &format!("healed after {name}"));
    }

    teardown(
        eng,
        Net {
            endpoints: Vec::new(),
            handles: vec![h0, h1],
        },
    );
}

#[test]
fn coordinator_epoch_follows_the_fleet_after_an_all_unreachable_insert() {
    let _serial = serial();
    let w = world();
    let total = w.dataset.num_accounts(1) as u32;
    let sig = w
        .extractor
        .extract_account(AccountSource::account(&w.dataset, 1, 0), total);

    // Every shard misses the insert for the whole retry budget, so the op
    // is logged and its seq spent with no ack to count. Three ways there:
    // no dial succeeds and replay later applies the op; the same with an
    // edge every replica rejects on replay; every write lands but every
    // reply is lost, so the shards applied what nobody heard them ack.
    let budget = u64::from(retry().max_attempts);
    let cases: [(&str, &str, Vec<(u32, f64)>, u64); 3] = [
        ("applied on replay", "connect", vec![(0, 2.0)], 1),
        ("rejected on replay", "connect", vec![(100_000, 1.0)], 0),
        ("applied, acks lost", "read", vec![(0, 2.0)], 1),
    ];
    for (name, site, edges, published) in cases {
        let net = spawn_net(w);
        let mut eng =
            DistributedEngine::connect(w.trained.model.clone(), net.endpoints.clone(), retry())
                .expect("connect");
        let before = eng.epoch();

        let mut plan = FaultPlan::new();
        for s in 0..NUM_SHARDS {
            if site == "connect" {
                // Drop the live connection so the retries have to dial.
                plan = plan.one_shot(&format!("net.write.{s}"), 0, FaultKind::Transient);
            }
            for hit in 0..budget {
                plan = plan.one_shot(&format!("net.{site}.{s}"), hit, FaultKind::Transient);
            }
        }
        let scope = install(plan);
        let err = eng
            .insert_account_with_edges(1, sig.clone(), &edges)
            .expect_err("no shard acknowledged");
        drop(scope);
        assert!(
            matches!(&err, NetError::Degraded { failed } if failed == &[0, 1]),
            "{name}: {err}"
        );

        // The next call re-dials every shard; replay delivers the op to
        // those that never saw it.
        for o in eng.query_batch_outcome(0, &PROBE).expect("healed query") {
            assert!(o.is_complete(), "{name}: healed query is complete");
        }
        assert_eq!(eng.epoch(), before + published, "{name}: coordinator");
        for s in 0..NUM_SHARDS {
            let st = eng.status(s).expect("status");
            assert_eq!(st.applied_seq, 1, "{name}: shard {s} consumed the op");
            assert_eq!(st.epoch, eng.epoch(), "{name}: shard {s} epoch");
        }
        eng.assert_epochs()
            .unwrap_or_else(|e| panic!("{name}: epoch lockstep: {e}"));
        teardown(eng, net);
    }
}
