//! The trained world every workload starts from, and the set-up that
//! builds it: generate → extract → fit → persist → cold-start.
//!
//! Set-up is the same for all four workloads up to the cold-started
//! engine, so every set-up yields one `fit_s` and one `cold_start_ms`
//! sample and the `artifact_mb` reading (a deployment pays them whatever
//! it then serves); `setup_s` is the whole plus the workload's own
//! preparation.

use crate::trace::{Tracer, NONE};
use hydra_core::ingest::{RawAccount, ServingArtifact, SignalExtractor};
use hydra_core::model::{Hydra, HydraConfig, PairTask, TrainedHydra};
use hydra_core::{AccountSource, LinkageEngine, ShardedEngine, SignalConfig, Signals};
use hydra_datagen::{Dataset, DatasetConfig};
use hydra_graph::SocialGraph;
use hydra_net::PopulationArtifact;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Seed of the generated world. It is fixed: `--seed` varies the op list
/// (which accounts are queried, inserted and removed, and in what order),
/// not the population and model under test. Across worlds the same code
/// differs by a third in query latency (different candidate counts,
/// support vectors and friend graphs), which would drown every bound; on
/// one world `linkage_f1` and `artifact_mb` repeat exactly.
pub const WORLD_SEED: u64 = 47;

/// The platform pair every workload links: task 0, left → right.
pub const TASK: usize = 0;
pub const LEFT: usize = 0;
pub const RIGHT: usize = 1;

/// A per-process scratch directory under the benchmark's results
/// directory (sockets, artifacts); removed when dropped, so a failed run
/// leaves nothing for the next one to trip over.
pub struct Scratch {
    path: PathBuf,
}

/// Where results and scratch files go: `benchmark/results` under the
/// current directory (the checkout root; `run.sh` changes into it). Kept
/// relative so unix-socket paths stay far below the 108-byte limit
/// wherever the checkout lives.
pub fn results_dir() -> PathBuf {
    PathBuf::from("benchmark/results")
}

impl Scratch {
    pub fn create() -> std::io::Result<Self> {
        let path = results_dir().join(format!("tmp-{}", std::process::id()));
        std::fs::create_dir_all(&path)?;
        Ok(Scratch { path })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.path).ok();
    }
}

/// Everything the timed phases and the layer ledger read.
pub struct World {
    pub dataset: Dataset,
    pub signals: Signals,
    /// The frozen extractor in Reference fold-in mode. Its fold-in tables
    /// are never built, so a clone can time the build.
    pub extractor: SignalExtractor,
    pub trained: TrainedHydra,
    pub graphs: Vec<SocialGraph>,
    /// Right-platform raw payloads inserts and ingest batches draw from
    /// (`raws[i].person` is the person behind payload `i`).
    pub raws: Vec<RawAccount>,
    /// Person behind each left account (ground truth for `linkage_f1`).
    pub left_person: Vec<u32>,
    /// Path of the persisted serving artifact (shard processes start
    /// from it).
    pub serving_path: PathBuf,
}

/// Wall-clock of one set-up, by step.
#[derive(Debug, Clone, Default)]
pub struct SetupSample {
    pub extract_ns: u64,
    pub fit_ns: u64,
    pub serving_save_ns: u64,
    pub population_save_ns: u64,
    pub serving_load_ns: u64,
    pub population_load_ns: u64,
    pub engine_build_ns: u64,
    /// Bytes on disk → first answer: loads + `into_signals` + engine build
    /// + the first query.
    pub cold_start_ns: u64,
    pub serving_bytes: u64,
    pub population_bytes: u64,
    /// Everything above plus generation and the workload's own preparation
    /// after the cold start (`serve_query`: engine build; fleet: slice,
    /// spawn, `READY`, dial). The set-up probe in between is off this clock.
    pub total_ns: u64,
}

impl World {
    pub fn num_lefts(&self) -> usize {
        self.left_person.len()
    }

    pub fn model(&self) -> &hydra_core::LinkageModel {
        &self.trained.model
    }

    /// One more `Hydra::fit` on this world's data and labels.
    pub fn fit(&self) -> Result<TrainedHydra, String> {
        fit(
            &self.dataset,
            &self.signals,
            self.trained.tasks[TASK].task.labels.clone(),
        )
    }

    /// A fresh single engine over the set-up population.
    pub fn engine(&self) -> Result<LinkageEngine, String> {
        self.engine_for(self.model())
    }

    /// A fresh single engine serving `model` over the set-up population.
    pub fn engine_for(&self, model: &hydra_core::LinkageModel) -> Result<LinkageEngine, String> {
        LinkageEngine::new(model.clone(), &self.signals, self.graphs.clone())
            .map_err(|e| format!("engine: {e}"))
    }

    /// A fresh thread-sharded engine over the set-up population.
    pub fn sharded_engine(&self, shards: usize) -> Result<ShardedEngine, String> {
        ShardedEngine::new(
            self.model().clone(),
            &self.signals,
            self.graphs.clone(),
            shards,
        )
        .map_err(|e| format!("sharded engine: {e}"))
    }

    /// The full population as an artifact (the fleet slices it; `train_cold`
    /// saves it).
    pub fn population(&self) -> PopulationArtifact {
        PopulationArtifact::from_signals(&self.signals, &self.graphs, self.extractor.fingerprint())
    }
}

/// `Hydra::fit` with the default configuration on the one task every
/// workload links.
fn fit(
    dataset: &Dataset,
    signals: &Signals,
    labels: Vec<(u32, u32, bool)>,
) -> Result<TrainedHydra, String> {
    Hydra::new(HydraConfig::default())
        .fit(
            dataset,
            signals,
            vec![PairTask {
                left_platform: LEFT,
                right_platform: RIGHT,
                labels,
                unlabeled_whitelist: None,
            }],
        )
        .map_err(|e| format!("fit failed: {e}"))
}

/// The label plan of the repository's serve benchmark: a fifth of the
/// persons as true pairs plus as many offset negatives.
fn label_plan(n: usize) -> Vec<(u32, u32, bool)> {
    let n = n as u32;
    let mut labels: Vec<(u32, u32, bool)> = (0..n / 5).map(|i| (i, i, true)).collect();
    labels.extend((0..n / 5).map(|i| (i, (i + n / 2) % n, false)));
    labels
}

/// Build the world and cold-start a single engine from its persisted
/// artifacts. `total_ns` of the sample is left for the caller to set once the
/// workload's own preparation is done.
pub fn build(
    persons: usize,
    scratch: &Scratch,
    tracer: &mut Tracer,
) -> Result<(World, LinkageEngine, SetupSample), String> {
    let mut sample = SetupSample::default();
    let setup = tracer.begin("setup", NONE);

    let dataset = tracer.span("datagen.generate", NONE, || {
        Dataset::generate(DatasetConfig::english(persons, WORLD_SEED))
    });

    let signal_config = SignalConfig {
        lda_iterations: 10,
        infer_iterations: 4,
        ..Default::default()
    };
    let ((signals, extractor), ns) = tracer.timed("signals.extract", NONE, || {
        Signals::extract_with_extractor(&dataset, &signal_config)
    });
    sample.extract_ns = ns;

    let (trained, ns) = tracer.timed("model.fit", NONE, || {
        fit(&dataset, &signals, label_plan(persons))
    });
    let trained = trained?;
    sample.fit_ns = ns;

    let graphs: Vec<SocialGraph> = dataset.platforms.iter().map(|p| p.graph.clone()).collect();
    let serving_path = scratch.path().join("serving.hysa");
    let population_path = scratch.path().join("population.hypp");
    let serving = ServingArtifact {
        model: trained.model.clone(),
        extractor: extractor.clone(),
    };
    let population = PopulationArtifact::from_signals(&signals, &graphs, extractor.fingerprint());
    let (saved, ns) = tracer.timed("artifact.save", NONE, || serving.save(&serving_path));
    saved.map_err(|e| format!("serving artifact save: {e}"))?;
    sample.serving_save_ns = ns;
    let (saved, ns) = tracer.timed("population.save", NONE, || {
        population.save(&population_path)
    });
    saved.map_err(|e| format!("population artifact save: {e}"))?;
    sample.population_save_ns = ns;
    drop((serving, population));

    let cold = cold_start(&serving_path, &population_path, tracer)?;
    sample.serving_load_ns = cold.serving_load_ns;
    sample.population_load_ns = cold.population_load_ns;
    sample.engine_build_ns = cold.engine_build_ns;
    sample.cold_start_ns = cold.total_ns;
    sample.serving_bytes = file_len(&serving_path)?;
    sample.population_bytes = file_len(&population_path)?;
    tracer.end(setup);

    let raws: Vec<RawAccount> = (0..dataset.num_accounts(RIGHT) as u32)
        .map(|a| RawAccount::from_view(AccountSource::account(&dataset, RIGHT, a)))
        .collect();
    let left_person = dataset.platforms[LEFT]
        .accounts
        .iter()
        .map(|a| a.person)
        .collect();
    let world = World {
        dataset,
        signals,
        extractor,
        trained,
        graphs,
        raws,
        left_person,
        serving_path,
    };
    Ok((world, cold.engine, sample))
}

fn file_len(path: &Path) -> Result<u64, String> {
    std::fs::metadata(path)
        .map(|m| m.len())
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// One cold start, by step.
pub struct ColdStart {
    pub engine: LinkageEngine,
    pub serving_load_ns: u64,
    pub population_load_ns: u64,
    pub engine_build_ns: u64,
    pub total_ns: u64,
}

/// Bytes on disk → first answer, the way a serving process starts: load
/// both artifacts, rebuild the signal store, build the engine, answer one
/// query.
pub fn cold_start(
    serving_path: &Path,
    population_path: &Path,
    tracer: &mut Tracer,
) -> Result<ColdStart, String> {
    let whole = tracer.begin("cold_start", NONE);
    let t = Instant::now();
    let (serving, serving_load_ns) = tracer.timed("artifact.load", NONE, || {
        ServingArtifact::load(serving_path)
    });
    let serving = serving.map_err(|e| format!("serving artifact load: {e}"))?;
    let (population, population_load_ns) = tracer.timed("population.load", NONE, || {
        PopulationArtifact::load(population_path)
    });
    let population = population.map_err(|e| format!("population artifact load: {e}"))?;
    let (signals, graphs) = population.into_signals(serving.extractor.lda().clone());
    let (engine, engine_build_ns) = tracer.timed("engine.build", NONE, || {
        LinkageEngine::new(serving.model, &signals, graphs)
    });
    let engine = engine.map_err(|e| format!("engine build: {e}"))?;
    let first = tracer.span("engine.first_query", NONE, || engine.query(TASK, 0));
    first.map_err(|e| format!("first query: {e}"))?;
    let total_ns = t.elapsed().as_nanos() as u64;
    tracer.end(whole);
    Ok(ColdStart {
        engine,
        serving_load_ns,
        population_load_ns,
        engine_build_ns,
        total_ns,
    })
}
