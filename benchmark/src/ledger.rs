//! The layer ledger of the traced run: busy time and work counts per
//! library module, measured from outside by timing calls into public
//! functions.
//!
//! The library's per-query internals are private, so each layer is
//! *replayed* through its public entry point on the inputs the sampled ops
//! used, and the replay is checked bit for bit against what the engine
//! answered — the layers timed are provably the layers run. A layer a
//! workload never crosses reports 0.

use crate::fleet::{Fleet, SHARDS};
use crate::ops::SplitMix64;
use crate::stats::{median_f64, median_rate};
use crate::target::{replay, Mutation, Runner, Samples};
use crate::trace::{Tracer, NONE};
use crate::workloads::{RunConfig, Workload};
use crate::world::{SetupSample, World, LEFT, RIGHT, TASK};
use hydra_core::candidates::{candidate_recall, generate_candidates, generate_candidates_threads};
use hydra_core::ingest::FoldInMode;
use hydra_core::missing::MissingFiller;
use hydra_core::model::{HydraConfig, LinkagePrediction};
use hydra_core::moo::{solve_with_kernel, MooProblem};
use hydra_core::shard::{merge_scored_candidates, prediction_rank_cmp, ScoredCandidate};
use hydra_core::structure::build_structure_matrix;
use hydra_core::{BlockingIndex, CandidatePair, LinkageEngine, UserSignals};
use hydra_linalg::dense::Mat;
use hydra_linalg::kernels::kernel_matrix_mat;
use hydra_linalg::sparse::CsrBuilder;
use hydra_net::{DistributedEngine, Frame, Message, QueryReply, ShardServer};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

/// Per-layer metric values by name.
pub type Layers = BTreeMap<&'static str, f64>;

/// Sampled queries the replays cover at most.
const REPLAY_CAP: usize = 256;
/// Single writes the write-path replays time.
const WRITE_SAMPLES: usize = 64;
/// A remainder above these shares of the whole is an attribution failure.
const MAX_UNATTRIBUTED_QUERY: f64 = 0.10;
const MAX_UNATTRIBUTED_FIT: f64 = 0.15;

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn median_ns(samples: &[u64]) -> f64 {
    median_f64(&samples.iter().map(|&v| v as f64).collect::<Vec<_>>())
}

fn mean_ns(samples: &[u64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<u64>() as f64 / samples.len() as f64
    }
}

/// The lefts the replays run over: the sampled query ops of the run (the
/// first [`REPLAY_CAP`]), or a seeded draw when the run sampled none.
fn replay_lefts(cfg: &RunConfig, world: &World, runner: &Runner<'_>) -> Vec<(i64, u32)> {
    let mut lefts = sampled_lefts(&runner.samples);
    if lefts.is_empty() {
        let mut rng = SplitMix64::new(cfg.seed ^ 0x1ED6E2);
        lefts = (0..32.min(world.num_lefts()))
            .map(|_| (NONE, rng.below(world.num_lefts()) as u32))
            .collect();
    }
    lefts
}

/// The first [`REPLAY_CAP`] sampled query ops of the run: `(op_id, left)`.
fn sampled_lefts(samples: &Samples) -> Vec<(i64, u32)> {
    let sampled = &samples.sampled_lefts;
    sampled[..sampled.len().min(REPLAY_CAP)].to_vec()
}

/// A workload's own timed samples of a kind, or — when its phases take
/// none — the set-up probe's.
fn owned_or_probe<'a, T>(timed: &'a [T], probe: &'a [T]) -> &'a [T] {
    if timed.is_empty() {
        probe
    } else {
        timed
    }
}

/// Run every ledger section and assemble the per-layer values.
pub fn run(
    cfg: &RunConfig,
    world: &World,
    runner: &mut Runner<'_>,
    probe: &Samples,
    setup: &SetupSample,
    fleet: Option<Layers>,
) -> Result<Layers, String> {
    let mut layers: Layers = fleet.unwrap_or_default();
    let lefts = replay_lefts(cfg, world, runner);
    let log = runner.log.as_deref().unwrap_or(&[]);

    let fit = fit_layers(cfg, world, &mut runner.tracer, &mut layers)?;
    serve_layers(cfg, world, &lefts, log, &mut runner.tracer, &mut layers)?;
    write_layers(cfg, world, &mut runner.tracer, &mut layers)?;

    // Set-up steps, from the traced run's single set-up.
    layers.insert("signals.extract_s", setup.extract_ns as f64 / 1e9);
    layers.insert("engine.build_ms", ms(setup.engine_build_ns));
    layers.insert(
        "artifact.save_ms",
        ms(setup.serving_save_ns + setup.population_save_ns),
    );
    layers.insert("artifact.load_ms", ms(setup.serving_load_ns));
    layers.insert("artifact.serving_bytes", setup.serving_bytes as f64);
    layers.insert("population.load_ms", ms(setup.population_load_ns));
    layers.insert("population.bytes", setup.population_bytes as f64);
    layers.insert("candidates.recall", fit.recall);

    // Fan-out: phase-B throughput against phase-A latency. With more
    // worker threads than cores the ratio would measure oversubscription,
    // so it is withheld (NaN, which prints as `null`).
    let threads = hydra_par::num_threads();
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    layers.insert("par.threads", threads as f64);
    let s = &runner.samples;
    let speedup = if threads <= cores {
        median_rate(owned_or_probe(&s.batch, &probe.batch))
            * median_ns(owned_or_probe(&s.query_ns, &probe.query_ns))
            / 1e9
    } else {
        f64::NAN
    };
    layers.insert("par.batch_speedup", speedup);

    layers.insert("trace.spans", runner.tracer.spans().len() as f64);
    layers.insert("trace.sampled_ops", s.sampled_lefts.len() as f64);
    layers.insert("ops.attempted", (s.attempted + probe.attempted) as f64);
    layers.insert("ops.failed", (s.failed + probe.failed) as f64);
    Ok(layers)
}

struct FitParts {
    recall: f64,
    fit_s: f64,
    unattributed_s: f64,
}

/// Replay `Hydra::fit` stage by stage through the public functions it
/// calls — blocking, pair features, Eq. 18 fill, structure matrix, Gram
/// matrix, Eq. 15 solve — on the same expansion. The replayed expansion
/// and solution must equal the trained model's bit for bit.
fn fit_layers(
    cfg: &RunConfig,
    world: &World,
    tracer: &mut Tracer,
    layers: &mut Layers,
) -> Result<FitParts, String> {
    let limit = |fit: &FitParts| fit.unattributed_s.abs() > MAX_UNATTRIBUTED_FIT * fit.fit_s;
    let mut fit = fit_attempt(world, tracer, layers)?;
    if cfg.scale.gate_timings && limit(&fit) {
        // A burst on the host between the reference fit and its replay
        // looks like an unexplained remainder; a second attempt tells the
        // two apart (its values replace the first's).
        fit = fit_attempt(world, tracer, layers)?;
        if limit(&fit) {
            return Err(format!(
                "attribution: {:.3} s of the {:.3} s fit is unexplained by its layers (limit {:.0} %)",
                fit.unattributed_s,
                fit.fit_s,
                MAX_UNATTRIBUTED_FIT * 100.0
            ));
        }
    }
    Ok(fit)
}

fn fit_attempt(
    world: &World,
    tracer: &mut Tracer,
    layers: &mut Layers,
) -> Result<FitParts, String> {
    let cfg = HydraConfig::default();
    let state = &world.trained.tasks[TASK];
    let left = &world.signals.per_platform[LEFT];
    let right = &world.signals.per_platform[RIGHT];

    // The whole the parts are held against: one more fit, timed right
    // before the replay so both see the host in the same state.
    let (refit, fit_ns) = tracer.timed("model.fit", NONE, || world.fit());
    drop(refit.map_err(|e| format!("fit replay: reference {e}"))?);
    let whole = tracer.begin("replay.fit", NONE);

    // -- blocking, labeled pairs appended as fit does
    let (mut cands, cand_ns) = tracer.timed("candidates.generate", NONE, || {
        generate_candidates(left, right, &cfg.candidates)
    });
    let recall = candidate_recall(&cands, world.num_lefts());
    let mut index: HashMap<(u32, u32), usize> = cands
        .iter()
        .enumerate()
        .map(|(i, c)| ((c.left, c.right), i))
        .collect();
    for &(a, b, _) in &state.task.labels {
        if let std::collections::hash_map::Entry::Vacant(e) = index.entry((a, b)) {
            cands.push(CandidatePair {
                left: a,
                right: b,
                username_sim: 0.0,
                pre_matched: false,
            });
            e.insert(cands.len() - 1);
        }
    }
    if cands != state.candidates {
        return Err("fit replay: candidate list differs from the trained model's".into());
    }

    // -- pair features + Eq. 18 fill over the whole candidate list
    let fx = world.model().extractor();
    let pairs: Vec<(u32, u32)> = cands.iter().map(|c| (c.left, c.right)).collect();
    let ((lc, rc), cache_ns) = tracer.timed("features.profile_cache", NONE, || {
        (fx.profile_cache(left), fx.profile_cache(right))
    });
    let (mut feats, feat_ns) = tracer.timed("features.for_pairs", NONE, || {
        fx.features_for_pairs(&pairs, left, right, Some((&lc, &rc)))
    });
    let (_, fill_ns) = tracer.timed("missing.fill_matrix", NONE, || {
        let mut filler =
            MissingFiller::new(&fx, left, right, &world.graphs[LEFT], &world.graphs[RIGHT])
                .with_profile_caches(&lc, &rc);
        filler.fill_matrix(&pairs, &mut feats, cfg.fill);
    });
    if feats.values_flat() != state.features.values_flat() {
        return Err("fit replay: filled feature matrix differs from the trained model's".into());
    }

    // -- the expansion: labeled prefix, then the seeded unlabeled sample
    let mut label_map: HashMap<usize, f64> = HashMap::new();
    for &(a, b, y) in &state.task.labels {
        label_map.insert(index[&(a, b)], if y { 1.0 } else { -1.0 });
    }
    let mut pos: Vec<usize> = label_map
        .iter()
        .filter(|(_, &y)| y > 0.0)
        .map(|(&c, _)| c)
        .collect();
    let mut neg: Vec<usize> = label_map
        .iter()
        .filter(|(_, &y)| y < 0.0)
        .map(|(&c, _)| c)
        .collect();
    pos.sort_unstable();
    neg.sort_unstable();
    let labeled: Vec<usize> = pos.into_iter().chain(neg).collect();
    let labels: Vec<f64> = labeled.iter().map(|ci| label_map[ci]).collect();
    let mut pool: Vec<usize> = (0..cands.len())
        .filter(|ci| !label_map.contains_key(ci))
        .collect();
    pool.shuffle(&mut StdRng::seed_from_u64(cfg.seed));
    pool.truncate(cfg.max_unlabeled_expansion);
    let slots: Vec<usize> = labeled.iter().chain(pool.iter()).copied().collect();
    let n = slots.len();
    let mut features = Mat::zeros(n, hydra_core::features::FEATURE_DIM);
    for (g, &ci) in slots.iter().enumerate() {
        features.row_mut(g).copy_from_slice(feats.row(ci));
    }
    let solution = &world.model().solution;
    if features.as_slice() != solution.expansion.as_slice() {
        return Err("fit replay: expansion differs from the trained model's".into());
    }

    // -- structure matrix over the expansion's pairs (Eq. 14)
    let slot_of: HashMap<usize, usize> = slots.iter().enumerate().map(|(g, &ci)| (ci, g)).collect();
    let mut local: Vec<usize> = slots.clone();
    local.sort_unstable();
    let local_pairs: Vec<(u32, u32)> = local.iter().map(|&ci| pairs[ci]).collect();
    let (sm, structure_ns) = tracer.timed("structure.build", NONE, || {
        build_structure_matrix(
            &local_pairs,
            left,
            right,
            &world.graphs[LEFT],
            &world.graphs[RIGHT],
            &cfg.structure,
        )
    });
    let mut m = CsrBuilder::new(n, n);
    let mut degrees = vec![0.0; n];
    for (li, &ci) in local.iter().enumerate() {
        let g = slot_of[&ci];
        degrees[g] = sm.degrees[li];
        for (lj, v) in sm.m.row_iter(li) {
            m.push(g, slot_of[&local[lj]], v);
        }
    }
    let problem = MooProblem {
        features,
        labels,
        m: m.build(),
        degrees,
    };

    // -- Gram matrix and the Eq. 15 solve
    let (k, gram_ns) = tracer.timed("linalg.gram", NONE, || {
        kernel_matrix_mat(cfg.moo.kernel, &problem.features)
    });
    let (solved, solve_ns) = tracer.timed("moo.solve", NONE, || {
        solve_with_kernel(&problem, &cfg.moo, &k)
    });
    let solved = solved.map_err(|e| format!("fit replay: solve failed: {e}"))?;
    tracer.end(whole);
    let same_bits = |a: &[f64], b: &[f64]| {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
    };
    if !same_bits(&solved.alpha, &solution.alpha)
        || solved.bias.to_bits() != solution.bias.to_bits()
    {
        return Err("fit replay: solution differs from the trained model's".into());
    }

    let parts_ns = cand_ns + cache_ns + feat_ns + fill_ns + structure_ns + gram_ns + solve_ns;
    let unattributed_s = (fit_ns as f64 - parts_ns as f64) / 1e9;
    layers.insert("candidates.fit_ms", ms(cand_ns));
    layers.insert("features.fit_ms", ms(cache_ns + feat_ns));
    layers.insert("missing.fit_ms", ms(fill_ns));
    layers.insert("structure.build_ms", ms(structure_ns));
    layers.insert("linalg.gram_ms", ms(gram_ns));
    layers.insert("linalg.gram_rows", n as f64);
    layers.insert("moo.solve_s", solve_ns as f64 / 1e9);
    layers.insert("moo.solver_iterations", solved.iterative_iterations as f64);
    layers.insert("moo.expansion_rows", n as f64);
    layers.insert("model.fit_unattributed_s", unattributed_s);
    Ok(FitParts {
        recall,
        fit_s: fit_ns as f64 / 1e9,
        unattributed_s,
    })
}

fn same_answer(a: &[LinkagePrediction], b: &[LinkagePrediction]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            (x.left, x.right, x.linked) == (y.left, y.right, y.linked)
                && x.score.to_bits() == y.score.to_bits()
        })
}

/// Replay the query path layer by layer — candidates → features → Eq. 18
/// fill → kernel decision → rank — for every sampled query, next to the
/// engine's own answer, on the population the run's last queries saw: a
/// single engine brought there by the run's mutation `log` (empty on every
/// workload but `fleet_mixed`). The replay must be bit-identical to
/// `engine.query`.
fn serve_layers(
    cfg: &RunConfig,
    world: &World,
    lefts: &[(i64, u32)],
    log: &[Mutation],
    tracer: &mut Tracer,
    layers: &mut Layers,
) -> Result<(), String> {
    let model = world.model();
    let mut engine = world.engine()?;
    replay(log, &mut engine)?;
    let snapshot = engine.snapshot().clone();
    let (lp, rp) = (snapshot.platform(LEFT), snapshot.platform(RIGHT));
    let signals = |p: &hydra_core::PlatformProfiles| -> Vec<UserSignals> {
        (0..p.len() as u32).map(|a| p.signal(a).clone()).collect()
    };
    let (left, right) = (&signals(lp), &signals(rp));
    let fx = model.extractor();
    let (lc, rc) = (fx.profile_cache(left), fx.profile_cache(right));
    // Blocking's public entry point indexes every slot it is given and
    // cannot be told which were removed. Where the log removed accounts the
    // generated list is therefore timed but not used: the later layers run
    // on the pairs of the engine's own answer.
    let removals = log.iter().any(|m| matches!(m, Mutation::Remove(_)));

    // Blocking has one public entry point, the batch one, which builds the
    // right-side index before probing. Time it over all sampled lefts at
    // once and take the index build (timed alone) off.
    let probes: Vec<UserSignals> = lefts
        .iter()
        .map(|&(_, l)| left[l as usize].clone())
        .collect();
    let mut generated = Vec::new();
    let mut gen_ns = Vec::new();
    let mut build_ns = Vec::new();
    for _ in 0..3 {
        let (out, ns) = tracer.timed("candidates.generate", NONE, || {
            generate_candidates_threads(&probes, right, &model.candidates, 1)
        });
        generated = out;
        gen_ns.push(ns);
        let (index, ns) = tracer.timed("candidates.index_build", NONE, || {
            BlockingIndex::build(right)
        });
        std::hint::black_box(index);
        build_ns.push(ns);
    }
    let probe_ns = (median_ns(&gen_ns) - median_ns(&build_ns)).max(0.0);
    let mut per_left: Vec<Vec<CandidatePair>> = vec![Vec::new(); lefts.len()];
    for c in generated {
        per_left[c.left as usize].push(c);
    }

    // Per sampled op: the engine's own answer (timed once inside a span and
    // once bare, in alternating order, for the tracing-overhead estimate),
    // then the layers one by one. Engine and replay run back to back, so a
    // host stall slows both and the per-op remainder stays meaningful.
    let n = lefts.len();
    let (mut query_ns, mut bare_ns) = (Vec::with_capacity(n), Vec::with_capacity(n));
    let (mut feat_ns, mut fill_ns) = (Vec::with_capacity(n), Vec::with_capacity(n));
    let (mut decide_ns, mut rest_ns) = (Vec::with_capacity(n), Vec::with_capacity(n));
    let (mut pairs_total, mut rows_masked, mut friend_pairs) = (0usize, 0usize, 0usize);
    let candidates_ns = probe_ns / n as f64;
    for (i, &(op_id, l)) in lefts.iter().enumerate() {
        let bare = |engine: &LinkageEngine| {
            let t = Instant::now();
            let out = engine.query(TASK, l);
            (out, t.elapsed().as_nanos() as u64)
        };
        let whole = tracer.begin("replay.query", op_id);
        let (answer, traced, plain) = if i % 2 == 0 {
            let (answer, traced) = tracer.timed("engine.query", op_id, || engine.query(TASK, l));
            (answer, traced, bare(&engine).1)
        } else {
            let plain = bare(&engine).1;
            let (answer, traced) = tracer.timed("engine.query", op_id, || engine.query(TASK, l));
            (answer, traced, plain)
        };
        let answer = answer.map_err(|e| format!("replay query {l}: {e}"))?;
        let mut pairs: Vec<(u32, u32)> = if removals {
            answer.iter().map(|p| (p.left, p.right)).collect()
        } else {
            per_left[i].iter().map(|c| (l, c.right)).collect()
        };
        pairs.sort_unstable();
        pairs_total += pairs.len();
        let (mut feats, feat) = tracer.timed("features.for_pairs", op_id, || {
            fx.features_for_pairs_threads(&pairs, left, right, Some((&lc, &rc)), 1)
        });
        rows_masked += (0..feats.len()).filter(|&r| feats.mask(r) != 0).count();
        let (cached, fill) = tracer.timed("missing.fill_matrix", op_id, || {
            let mut filler = MissingFiller::over_profiles(&fx, lp, rp);
            filler.fill_matrix(&pairs, &mut feats, model.fill);
            filler.cache_size()
        });
        friend_pairs += cached;
        let (mut replayed, decide) = tracer.timed("moo.decision", op_id, || {
            (0..feats.len())
                .map(|r| {
                    let score = model.solution.decision(feats.row(r));
                    LinkagePrediction {
                        left: pairs[r].0,
                        right: pairs[r].1,
                        score,
                        linked: score > 0.0,
                    }
                })
                .collect::<Vec<_>>()
        });
        tracer.span("engine.rank", op_id, || {
            replayed.sort_by(prediction_rank_cmp)
        });
        tracer.end(whole);
        if !same_answer(&replayed, &answer) {
            return Err(format!(
                "layer replay for left {l} (op {op_id}) is not bit-identical to engine.query"
            ));
        }
        query_ns.push(traced);
        bare_ns.push(plain);
        feat_ns.push(feat);
        fill_ns.push(fill);
        decide_ns.push(decide);
        rest_ns.push(traced as f64 - candidates_ns - (feat + fill + decide) as f64);
    }

    // Medians over the sampled ops (they need not sum exactly).
    let engine_us = median_ns(&query_ns) / 1e3;
    let unattributed = median_f64(&rest_ns) / 1e3;
    let pairs_total = pairs_total.max(1) as f64;
    layers.insert("candidates.us_per_query", candidates_ns / 1e3);
    layers.insert("candidates.pairs_per_query", pairs_total / n as f64);
    layers.insert("features.us_per_query", median_ns(&feat_ns) / 1e3);
    layers.insert(
        "features.us_per_pair",
        us(feat_ns.iter().sum()) / pairs_total,
    );
    layers.insert("missing.us_per_query", median_ns(&fill_ns) / 1e3);
    layers.insert(
        "missing.filled_rows_share",
        rows_masked as f64 / pairs_total,
    );
    layers.insert(
        "missing.friend_pairs_per_query",
        friend_pairs as f64 / n as f64,
    );
    layers.insert("moo.decision_us_per_query", median_ns(&decide_ns) / 1e3);
    layers.insert("engine.query_us", engine_us);
    layers.insert("engine.unattributed_us_per_query", unattributed);
    // Tracing overhead: the same queries with and without a span recorded
    // around them, paired per left so the lefts' own spread cancels.
    let (with, without) = (query_ns.iter().sum::<u64>(), bare_ns.iter().sum::<u64>());
    layers.insert(
        "trace.overhead_pct",
        (with as f64 - without as f64) / without as f64 * 100.0,
    );
    if cfg.scale.gate_timings
        && cfg.workload == Workload::ServeQuery
        && unattributed.abs() > MAX_UNATTRIBUTED_QUERY * engine_us
    {
        return Err(format!(
            "attribution: {unattributed:.1} µs of the {engine_us:.1} µs query is unexplained by its \
             layers (limit {:.0} %)",
            MAX_UNATTRIBUTED_QUERY * 100.0
        ));
    }
    Ok(())
}

/// The write path: single inserts and removes on one engine, epoch
/// publication on a sharded engine, and both fold-in modes of extraction.
fn write_layers(
    cfg: &RunConfig,
    world: &World,
    tracer: &mut Tracer,
    layers: &mut Layers,
) -> Result<(), String> {
    let base = world.raws.len() as u32;
    let count = WRITE_SAMPLES.min(world.raws.len());

    // Reference-mode extraction, one account at a time.
    let mut extract_ns = Vec::with_capacity(count);
    let sigs: Vec<UserSignals> = (0..count)
        .map(|i| {
            let (sig, ns) = tracer.timed("ingest.extract_raw", NONE, || {
                world.extractor.extract_raw(&world.raws[i], base + i as u32)
            });
            extract_ns.push(ns);
            sig
        })
        .collect();
    layers.insert("ingest.extract_raw_us", median_ns(&extract_ns) / 1e3);

    let mut engine = world.engine()?;
    let (mut insert_ns, mut remove_ns) = (Vec::new(), Vec::new());
    for sig in &sigs {
        let sig = sig.clone();
        let (slot, ns) = tracer.timed("engine.insert", NONE, || {
            engine.insert_account_with_edges(RIGHT, sig, &[])
        });
        slot.map_err(|e| format!("write replay insert: {e}"))?;
        insert_ns.push(ns);
    }
    for i in 0..count as u32 {
        let (out, ns) = tracer.timed("engine.remove", NONE, || {
            engine.remove_account(RIGHT, base + i)
        });
        out.map_err(|e| format!("write replay remove: {e}"))?;
        remove_ns.push(ns);
    }
    drop(engine);
    layers.insert("engine.insert_us", median_ns(&insert_ns) / 1e3);
    layers.insert("engine.remove_us", median_ns(&remove_ns) / 1e3);

    // Epoch publication: the sharded insert with pre-extracted signals.
    let mut sharded = world.sharded_engine(SHARDS)?;
    let mut publish_ns = Vec::new();
    for sig in sigs {
        let (slot, ns) = tracer.timed("sharded.insert", NONE, || {
            sharded.insert_account_with_edges(RIGHT, sig, &[])
        });
        slot.map_err(|e| format!("write replay sharded insert: {e}"))?;
        publish_ns.push(ns);
    }
    layers.insert(
        "snapshot.publish_us_per_insert",
        median_ns(&publish_ns) / 1e3,
    );

    // Tables-mode batch extraction and the one-epoch batch insert.
    let tables = world
        .extractor
        .clone()
        .with_fold_in_mode(FoldInMode::Tables);
    let (_, tables_ns) = tracer.timed("ingest.tables_build", NONE, || {
        std::hint::black_box(tables.fold_in_tables());
    });
    layers.insert("ingest.tables_build_ms", ms(tables_ns));
    let batch: Vec<_> = (0..cfg.scale.ingest_batch)
        .map(|i| world.raws[i % world.raws.len()].clone())
        .collect();
    let (mut rates, mut batch_ms) = (Vec::new(), Vec::new());
    let mut next = base + count as u32;
    for _ in 0..3 {
        let (sigs, ns) = tracer.timed("ingest.extract_batch", NONE, || {
            tables.extract_batch(&batch, next)
        });
        rates.push(batch.len() as f64 / (ns as f64 / 1e9));
        let rows = sigs.into_iter().map(|s| (s, Vec::new())).collect();
        let (slots, ns) = tracer.timed("sharded.insert_batch", NONE, || {
            sharded.insert_batch_with_edges(RIGHT, rows)
        });
        slots.map_err(|e| format!("write replay batch insert: {e}"))?;
        batch_ms.push(ms(ns));
        next += batch.len() as u32;
    }
    layers.insert("ingest.extract_batch_accounts_per_s", median_f64(&rates));
    layers.insert("ingest.insert_batch_ms", median_f64(&batch_ms));
    layers.insert(
        "snapshot.epochs_published",
        sharded.snapshot().epoch() as f64,
    );
    layers.insert("snapshot.heap_mb", sharded.snapshot_bytes() as f64 / 1e6);
    Ok(())
}

/// Bytes off the wire → message: frame checks, then the payload decode.
fn from_wire(wire: &[u8]) -> Result<Message, hydra_core::ModelIoError> {
    Frame::from_bytes(wire).and_then(|(frame, _)| Message::decode(&frame))
}

/// Layers only the fleet crosses, measured while it is still up:
/// coordinator calls against the real processes, and codec, server
/// dispatch, partition scan and merge on in-process twins of the shards
/// (cold-started from the same slices, brought to the fleet's state by
/// the run's mutation log).
pub fn fleet_layers(
    world: &World,
    fleet: &Fleet,
    engine: &mut DistributedEngine,
    runner: &mut Runner<'_>,
) -> Result<Layers, String> {
    let mut layers = Layers::new();
    let tracer = &mut runner.tracer;
    let coordinator_us = mean_ns(&tracer.durations("coordinator.query")) / 1e3;

    let mut rtt = Vec::with_capacity(WRITE_SAMPLES);
    for i in 0..WRITE_SAMPLES {
        let (status, ns) = tracer.timed("coordinator.status", NONE, || engine.status(i % SHARDS));
        status.map_err(|e| format!("status probe: {e}"))?;
        rtt.push(ns);
    }
    layers.insert("coordinator.query_us", coordinator_us);
    layers.insert("coordinator.status_rtt_us", median_ns(&rtt) / 1e3);
    layers.insert("coordinator.retries", engine.health().retries() as f64);
    layers.insert(
        "coordinator.degraded_queries",
        engine.health().degraded_queries() as f64,
    );
    layers.insert(
        "server.cold_start_ms",
        ms(fleet.cold_start_ns.iter().copied().max().unwrap_or(0)),
    );
    layers.insert("population.slice_ms", ms(fleet.slice_ns));

    // Twins of the shard servers at the fleet's current state.
    let mut twins = Vec::with_capacity(SHARDS);
    for (s, slice) in fleet.slice_paths.iter().enumerate() {
        let mut twin = ShardServer::from_artifacts(&world.serving_path, slice, s, SHARDS)
            .map_err(|e| format!("twin server {s}: {e}"))?;
        let log = runner.log.as_deref().unwrap_or(&[]);
        for (i, m) in log.iter().enumerate() {
            let seq = i as u64 + 1;
            let msg = match m {
                Mutation::Insert(sig, edges) => Message::InsertBatch {
                    seq,
                    platform: RIGHT as u32,
                    accounts: vec![((**sig).clone(), edges.clone())],
                },
                Mutation::InsertBatch(batch) => Message::InsertBatch {
                    seq,
                    platform: RIGHT as u32,
                    accounts: batch.clone(),
                },
                Mutation::Remove(account) => Message::Remove {
                    seq,
                    platform: RIGHT as u32,
                    account: *account,
                },
            };
            if !matches!(
                twin.handle(msg),
                Message::MutResp(hydra_net::MutOutcome::Applied { .. })
            ) {
                return Err(format!("twin server {s} refused mutation {seq}"));
            }
        }
        twins.push(twin);
    }

    let lefts = sampled_lefts(&runner.samples);
    if lefts.is_empty() {
        return Ok(layers);
    }
    let max_per_user = world.model().candidates.max_per_user;
    let (mut encode_ns, mut decode_ns, mut handle_ns, mut merge_ns) = (0u64, 0u64, 0u64, 0u64);
    let mut bytes = 0usize;
    let mut scan_max_ns = 0u64;
    let mut scan_sum_ns = 0u64;
    for &(op_id, l) in &lefts {
        let whole = tracer.begin("replay.fleet_query", op_id);
        let request = Message::QueryBatch {
            task: TASK as u64,
            lefts: vec![l],
        };
        let mut contributions: Vec<ScoredCandidate> = Vec::new();
        let mut handled = [0u64; SHARDS];
        for (s, twin) in twins.iter_mut().enumerate() {
            // Coordinator side: encode the request for this shard.
            let (wire, ns) = tracer.timed("codec.encode", op_id, || request.encode().to_bytes());
            encode_ns += ns;
            bytes += wire.len();
            // Shard side: decode, dispatch, encode the reply.
            let (decoded, ns) = tracer.timed("codec.decode", op_id, || from_wire(&wire));
            decode_ns += ns;
            let decoded = decoded.map_err(|e| format!("request decode: {e}"))?;
            let (reply, ns) = tracer.timed("server.handle", op_id, || twin.handle(decoded));
            handled[s] = ns;
            let (wire, ns) = tracer.timed("codec.encode", op_id, || reply.encode().to_bytes());
            encode_ns += ns;
            bytes += wire.len();
            // Coordinator side: decode the reply.
            let (decoded, ns) = tracer.timed("codec.decode", op_id, || from_wire(&wire));
            decode_ns += ns;
            match decoded.map_err(|e| format!("reply decode: {e}"))? {
                Message::QueryResp(Ok(mut replies)) if replies.len() == 1 => match replies.pop() {
                    Some(QueryReply::Answer(scored)) => contributions.extend(scored),
                    other => return Err(format!("twin server {s} did not answer: {other:?}")),
                },
                other => return Err(format!("twin server {s} replied {other:?}")),
            }
        }
        // The slowest shard sets the query's time.
        handle_ns += handled.iter().copied().max().unwrap_or(0);
        let (merged, ns) = tracer.timed("shard.merge", op_id, || {
            merge_scored_candidates(contributions, max_per_user)
        });
        merge_ns += ns;
        // The partition scan alone, without dispatch: each twin's replica.
        let mut part = [0u64; SHARDS];
        for (s, twin) in twins.iter().enumerate() {
            let (scan, ns) = tracer.timed("shard.partition_scan", op_id, || {
                twin.replica().query_partition(TASK, l)
            });
            scan.map_err(|e| format!("partition scan: {e}"))?;
            part[s] = ns;
        }
        scan_max_ns += part.iter().copied().max().unwrap_or(0);
        scan_sum_ns += part.iter().sum::<u64>();
        tracer.end(whole);
        // The twins must be faithful: their merged answer is the fleet's.
        let live = DistributedEngine::query(engine, TASK, l)
            .map_err(|e| format!("fleet query {l}: {e}"))?;
        if !same_answer(&merged, &live) {
            return Err(format!(
                "twin servers' merged answer for left {l} differs from the fleet's"
            ));
        }
    }
    let n = lefts.len() as f64;
    let scan_us = us(scan_max_ns) / n;
    let codec_us = us(encode_ns + decode_ns) / n;
    layers.insert("codec.encode_us_per_query", us(encode_ns) / n);
    layers.insert("codec.decode_us_per_query", us(decode_ns) / n);
    layers.insert("codec.bytes_per_query", bytes as f64 / n);
    layers.insert("server.handle_us_per_query", us(handle_ns) / n);
    layers.insert("shard.partition_scan_us_per_query", scan_us);
    layers.insert(
        "shard.scan_imbalance",
        scan_max_ns as f64 / (scan_sum_ns as f64 / SHARDS as f64),
    );
    layers.insert("shard.merge_us_per_query", us(merge_ns) / n);
    layers.insert(
        "coordinator.wire_wait_us_per_query",
        coordinator_us - scan_us - us(merge_ns) / n - codec_us,
    );
    Ok(layers)
}
