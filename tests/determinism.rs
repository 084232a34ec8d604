//! Determinism guarantees, end to end: the same seed must yield
//! byte-identical serialized artifacts. This is the runtime counterpart of
//! the `determinism` (L2) and `ordered-iteration` (L3) rules in
//! `cargo xtask lint` — those ban ambient entropy and hash-ordered
//! iteration statically; these tests prove the surviving code paths really
//! are replayable. Tests compile with `debug_assertions`, so every
//! `debug_invariant!` in the closure and GA paths fires here too.

mod common;

use auto_model::hpo::{
    BayesianOptimization, Budget, Executor, FnObjective, GaConfig, GeneticAlgorithm, Optimizer,
    OptimizerBuilder, SmacLite, TrialCache,
};
use auto_model::knowledge::acquisition::build_network;
use auto_model::knowledge::experience::Experience;
use auto_model::knowledge::graph::InformationNetwork;
use auto_model::knowledge::paper::{rank_papers, Paper, PaperLevel, VenueType};
use std::collections::BTreeMap;

/// Serialize a graph to a canonical byte string: every edge in iteration
/// order. Any ordering instability in the closure would show up here.
fn graph_bytes(g: &InformationNetwork) -> String {
    let mut out = String::new();
    for (from, to, w) in g.edges() {
        out.push_str(&format!("{from}->{to}:{w};"));
    }
    out
}

fn corpus() -> (Vec<Experience>, BTreeMap<String, usize>) {
    let papers = vec![
        Paper::new("p-weak", PaperLevel::D, VenueType::Conference, 0.2, 2),
        Paper::new("p-mid", PaperLevel::B, VenueType::Conference, 1.5, 40),
        Paper::new("p-strong", PaperLevel::A, VenueType::Journal, 8.0, 900),
    ];
    let experiences = vec![
        Experience::new(
            "p-strong",
            "wine",
            "RandomForest",
            &["J48", "NaiveBayes", "IBk"],
        ),
        Experience::new("p-mid", "wine", "J48", &["OneR", "ZeroR", "NaiveBayes"]),
        Experience::new("p-weak", "wine", "NaiveBayes", &["RandomForest", "ZeroR"]),
        Experience::new("p-mid", "wine", "IBk", &["ZeroR", "OneR"]),
    ];
    let reliability: BTreeMap<String, usize> = rank_papers(&papers).into_iter().collect();
    (experiences, reliability)
}

#[test]
fn dgraph_closure_is_byte_identical_across_runs() {
    let (experiences, reliability) = corpus();
    let run = || {
        let rinf: Vec<&Experience> = experiences.iter().collect();
        // build_network closes transitively and resolves conflicts; in this
        // (debug) build that also re-derives every widest path and checks it.
        graph_bytes(&build_network(&rinf, &reliability))
    };
    let first = run();
    let second = run();
    assert!(!first.is_empty(), "corpus produced no edges");
    assert_eq!(
        first, second,
        "closure output differs between identical runs"
    );
}

#[test]
fn closure_is_idempotent_on_the_public_surface() {
    let (experiences, reliability) = corpus();
    let rinf: Vec<&Experience> = experiences.iter().collect();
    let mut g = build_network(&rinf, &reliability);
    let before = graph_bytes(&g);
    g.close_transitively();
    assert_eq!(
        before,
        graph_bytes(&g),
        "a second closure pass changed edges"
    );
}

#[test]
fn one_ga_generation_is_byte_identical_under_the_same_seed() {
    let space = space();
    let run = |seed: u64| -> String {
        let mut obj = FnObjective(fitness);
        let mut ga = GeneticAlgorithm::with_config(
            seed,
            GaConfig {
                population: 10,
                generations: 1,
                ..GaConfig::default()
            },
        );
        let out = ga
            .optimize(&space, &mut obj, &Budget::evals(20))
            .expect("trials recorded");
        // Serialize every trial: the config (via serde) plus the exact score
        // bits. Any nondeterminism in sampling, crossover, mutation, or
        // evaluation order changes these bytes.
        out.trials
            .iter()
            .map(|t| {
                format!(
                    "{}|{}#{:016x}\n",
                    t.index,
                    serde_json::to_string(&t.config).expect("config serializes"),
                    t.score.to_bits()
                )
            })
            .collect()
    };
    let first = run(97);
    let second = run(97);
    assert_eq!(first, second, "GA trials differ under the same seed");
    assert_ne!(first, run(98), "different seeds should explore differently");
}

// ---- parallel executor: thread count must never leak into outputs ----

use common::{assert_matches_golden, fitness, space, trial_bytes};
use std::sync::Arc;

#[test]
fn ga_batch_evaluation_is_byte_identical_at_1_2_and_8_threads() {
    let space = space();
    let objective = fitness;
    let ga = GeneticAlgorithm::with_config(
        97,
        GaConfig {
            population: 10,
            generations: 100, // bounded by the budget
            ..GaConfig::default()
        },
    );
    let budget = Budget::evals(120);
    let run = |threads: usize| -> String {
        let out = ga
            .optimize_batch(&space, &objective, &budget, &Executor::new(threads))
            .expect("trials recorded");
        trial_bytes(&out)
    };
    let serial = {
        let mut obj = FnObjective(objective);
        let mut ga = GeneticAlgorithm::with_config(
            97,
            GaConfig {
                population: 10,
                generations: 100,
                ..GaConfig::default()
            },
        );
        trial_bytes(&ga.optimize(&space, &mut obj, &budget).expect("trials"))
    };
    let one = run(1);
    assert_eq!(
        serial, one,
        "batch path diverged from the serial trait path"
    );
    assert_eq!(one, run(2), "2-thread GA diverged from 1-thread");
    assert_eq!(one, run(8), "8-thread GA diverged from 1-thread");
}

#[test]
fn cross_validation_is_byte_identical_at_1_2_and_8_threads() {
    use auto_model::ml::{cross_val_accuracy, cross_val_accuracy_threaded};
    let data = auto_model::data::SynthSpec::new(
        "cv-det",
        200,
        4,
        1,
        3,
        auto_model::data::SynthFamily::Mixed,
        19,
    )
    .generate();
    let registry = auto_model::ml::Registry::fast();
    let spec = registry.get("J48").expect("fast registry carries J48");
    let factory = || spec.build(&spec.default_config(), 5);
    let serial = cross_val_accuracy(factory, &data, 5, 23).unwrap();
    for threads in [1usize, 2, 8] {
        let par =
            cross_val_accuracy_threaded(factory, &data, 5, 23, &Executor::new(threads)).unwrap();
        assert_eq!(
            serial.to_bits(),
            par.to_bits(),
            "{threads}-thread CV accuracy diverged from serial"
        );
    }
}

#[test]
fn registry_sweep_is_byte_identical_at_1_2_and_8_threads() {
    use auto_model::prelude::{EvalContext, Registry, SynthFamily, SynthSpec};
    let data = SynthSpec::new(
        "sweep-det",
        90,
        3,
        1,
        2,
        SynthFamily::GaussianBlobs { spread: 0.8 },
        47,
    )
    .generate();
    let sweep_bytes = |threads: usize| -> String {
        // Fresh context per run: the per-context cache must not be what
        // makes the outputs agree.
        let ctx = EvalContext::fast(Registry::fast());
        ctx.all_performances(&data, threads)
            .into_iter()
            .map(|(name, p)| {
                format!(
                    "{name}={}\n",
                    p.map_or("-".to_string(), |v| format!("{:016x}", v.to_bits()))
                )
            })
            .collect()
    };
    let one = sweep_bytes(1);
    assert_eq!(one, sweep_bytes(2), "2-thread sweep diverged from 1-thread");
    assert_eq!(one, sweep_bytes(8), "8-thread sweep diverged from 1-thread");
}

// ---- evaluation cache: its presence must never leak into outputs ----

#[test]
fn ga_cache_on_is_byte_identical_to_cache_off_at_1_2_and_8_threads() {
    let space = space();
    let ga_config = GaConfig {
        population: 10,
        generations: 100, // bounded by the budget
        ..GaConfig::default()
    };
    let budget = Budget::evals(120);
    let run = |threads: usize, cache: Arc<TrialCache>| -> String {
        let ga = GeneticAlgorithm::with_config(97, ga_config.clone()).with_cache(cache);
        let out = ga
            .optimize_batch(&space, &fitness, &budget, &Executor::new(threads))
            .expect("trials recorded");
        trial_bytes(&out)
    };
    let baseline = run(1, Arc::new(TrialCache::disabled()));
    for threads in [1usize, 2, 8] {
        assert_eq!(
            run(threads, Arc::new(TrialCache::disabled())),
            baseline,
            "cache-off GA at {threads} threads diverged"
        );
        assert_eq!(
            run(threads, Arc::new(TrialCache::default())),
            baseline,
            "cache-on GA at {threads} threads diverged from cache-off"
        );
    }
}

// ---- golden histories: two fixed seeds, three optimizers ----

/// Golden serialization of a run: the incumbent (config + exact score
/// bits) followed by the full trial history.
fn golden_bytes(out: &auto_model::hpo::OptOutcome) -> String {
    format!(
        "best|{}#{:016x}\n{}",
        serde_json::to_string(&out.best_config).expect("config serializes"),
        out.best_score.to_bits(),
        trial_bytes(out)
    )
}

/// Run one optimizer under one cache mode and serialize it canonically.
fn golden_run(kind: &str, seed: u64, cache: Arc<TrialCache>) -> String {
    let space = space();
    match kind {
        "ga" => {
            // The 2-thread batch path: the multi-thread contract is part of
            // what the golden bytes pin down.
            let ga = GeneticAlgorithm::with_config(
                seed,
                GaConfig {
                    population: 10,
                    generations: 100,
                    ..GaConfig::default()
                },
            )
            .with_cache(cache);
            golden_bytes(
                &ga.optimize_batch(&space, &fitness, &Budget::evals(60), &Executor::new(2))
                    .expect("trials recorded"),
            )
        }
        "bo" => {
            let mut bo = BayesianOptimization::new(seed).with_cache(cache);
            golden_bytes(
                &bo.optimize(&space, &mut FnObjective(fitness), &Budget::evals(25))
                    .expect("trials recorded"),
            )
        }
        "smac" => {
            let mut smac = SmacLite::new(seed).with_cache(cache);
            golden_bytes(
                &smac
                    .optimize(&space, &mut FnObjective(fitness), &Budget::evals(30))
                    .expect("trials recorded"),
            )
        }
        other => panic!("unknown optimizer kind {other}"),
    }
}

// ---- structured traces: byte-stable narration of a byte-stable run ----

use auto_model::trace::Tracer;

/// GA run with an in-memory tracer attached: returns (trial bytes, trace
/// bytes). Hostile faults, retries and the cache are all on, so the trace
/// carries the full event vocabulary.
fn traced_ga_run(threads: usize) -> (String, String) {
    common::quiet_injected_panics();
    let space = space();
    let (tracer, handle) = Tracer::in_memory();
    let ga = GeneticAlgorithm::with_config(
        97,
        GaConfig {
            population: 10,
            generations: 100, // bounded by the budget
            ..GaConfig::default()
        },
    )
    .with_policy(common::hostile_policy())
    .with_cache(Arc::new(TrialCache::default()))
    .with_tracer(Arc::new(tracer));
    let out = ga
        .optimize_batch(
            &space,
            &fitness,
            &Budget::evals(120),
            &Executor::new(threads),
        )
        .expect("trials recorded");
    (trial_bytes(&out), handle.contents())
}

/// Worker buffers merge at batch boundaries in trial-index order, so the
/// *trace* — not just the trial history — must be byte-identical at any
/// thread count, even with injected faults, retries, quarantines and
/// cache hits in play.
#[test]
fn ga_trace_bytes_are_identical_at_1_2_and_8_threads() {
    let (trials_1, trace_1) = traced_ga_run(1);
    for threads in [2usize, 8] {
        let (trials_n, trace_n) = traced_ga_run(threads);
        assert_eq!(
            trials_1, trials_n,
            "{threads}-thread traced GA trial history diverged"
        );
        assert_eq!(
            trace_1, trace_n,
            "{threads}-thread GA trace bytes diverged from 1-thread"
        );
    }
}

/// Golden traces: the full JSONL narration of one GA and one SMAC run is
/// pinned byte-for-byte (the default manual clock stamps every record
/// `t_us = 0`, so the bytes carry no wall-clock). Any change to event
/// vocabulary, codec, emission order, batching, or the runs themselves
/// shows up as a diff. Regenerate deliberately with `AUTOMODEL_REGOLDEN=1`.
#[test]
fn golden_traces_match_for_ga_and_smac() {
    let ga_trace = {
        let space = space();
        let (tracer, handle) = Tracer::in_memory();
        let ga = GeneticAlgorithm::with_config(
            97,
            GaConfig {
                population: 10,
                generations: 100,
                ..GaConfig::default()
            },
        )
        .with_cache(Arc::new(TrialCache::default()))
        .with_tracer(Arc::new(tracer));
        ga.optimize_batch(&space, &fitness, &Budget::evals(60), &Executor::new(2))
            .expect("trials recorded");
        handle.contents()
    };
    assert_matches_golden("trace_ga_seed97.jsonl", &ga_trace);

    let smac_trace = {
        let space = space();
        let (tracer, handle) = Tracer::in_memory();
        let mut smac = SmacLite::new(4242)
            .with_cache(Arc::new(TrialCache::default()))
            .with_tracer(Arc::new(tracer));
        smac.optimize(&space, &mut FnObjective(fitness), &Budget::evals(30))
            .expect("trials recorded");
        handle.contents()
    };
    assert_matches_golden("trace_smac_seed4242.jsonl", &smac_trace);

    assert!(
        !common::regolden(),
        "golden files regenerated; unset AUTOMODEL_REGOLDEN and re-run"
    );
}

/// Every (optimizer, seed) run must be byte-identical with the cache on
/// and off, and match the history checked into `tests/golden/` — so any
/// change to sampling, breeding, surrogate fitting, containment, or the
/// cache itself that alters results is caught as a diff, not silently.
/// Regenerate deliberately with `AUTOMODEL_REGOLDEN=1`.
#[test]
fn golden_ga_bo_smac_histories_match_for_two_seeds_cache_on_and_off() {
    for kind in ["ga", "bo", "smac"] {
        for seed in [97u64, 4242] {
            let off = golden_run(kind, seed, Arc::new(TrialCache::disabled()));
            let on = golden_run(kind, seed, Arc::new(TrialCache::default()));
            assert_eq!(
                off, on,
                "{kind} seed {seed}: cache-on history diverged from cache-off"
            );
            assert_matches_golden(&format!("{kind}_seed{seed}.txt"), &off);
        }
    }
    // A regeneration run rewrote the files above instead of checking them;
    // fail loudly so it can never be mistaken for a green suite.
    assert!(
        !common::regolden(),
        "golden files regenerated; unset AUTOMODEL_REGOLDEN and re-run"
    );
}

// ---- DMD: both meta-search GAs run on the executor ----

use auto_model::prelude::{CorpusSpec, DmdConfig, DmdInput};

/// One traced `DmdConfig::fast` build on `executor`: the trial history,
/// the trace bytes and the AMSTORE artifact bytes (model plus the trial
/// cache snapshot).
fn dmd_build(executor: &Executor) -> (String, String, Vec<u8>) {
    let corpus = CorpusSpec::small().build();
    let input = DmdInput::synthetic_from_corpus(&corpus, 60, 5);
    let cache = Arc::new(TrialCache::default());
    let (tracer, handle) = Tracer::in_memory();
    let dmd = DmdConfig::fast()
        .with_cache(Arc::clone(&cache))
        .with_tracer(Arc::new(tracer))
        .with_executor(executor.clone())
        .run(&input)
        .expect("DMD build");
    let artifact = dmd
        .to_artifact()
        .into_store(cache.snapshot())
        .to_bytes()
        .expect("artifact encodes");
    (dmd.trial_history(), handle.contents(), artifact)
}

/// Algorithms 2 and 3 score their generations on the executor, the
/// architecture search under Algorithm 3's target-score stop. The build
/// must be the same bytes at any width — and the wider runs must really
/// have spread their trials over several workers, or this would compare a
/// serial run with itself.
#[test]
fn dmd_build_is_byte_identical_at_1_2_and_8_threads() {
    let (history_1, trace_1, artifact_1) = dmd_build(&Executor::new(1));
    assert!(history_1.contains("feature-selection|") && history_1.contains("architecture|"));
    for threads in [2usize, 8] {
        let executor = Executor::new(threads);
        let (history, trace, artifact) = dmd_build(&executor);
        assert_eq!(
            history, history_1,
            "{threads}-thread DMD trial history diverged"
        );
        assert_eq!(trace, trace_1, "{threads}-thread DMD trace bytes diverged");
        assert!(
            artifact == artifact_1,
            "{threads}-thread DMD artifact bytes diverged"
        );
        assert!(
            executor.peak_workers() > 1,
            "{threads}-thread DMD build ran every trial on one worker"
        );
    }
}

// ---- UDR: the online tuning searches run on the executor ----

use auto_model::core::{CoreError, InnerOptimizer};
use auto_model::hpo::{BatchGate, Config, Domain, ManualClock, ParamValue, SearchSpace};
use auto_model::ml::{AlgorithmSpec, Classifier, Family, MlError};
use auto_model::prelude::{Dataset, Registry, Solution, SynthFamily, SynthSpec, UdrConfig};
use common::Rendezvous;

/// Every field of a [`Solution`], the score as exact bits.
fn solution_bytes(s: &Solution) -> String {
    format!(
        "{}|{}|{:016x}|{}|trials={}|quarantined={}|hits={}|misses={}",
        s.algorithm,
        s.config,
        s.score.to_bits(),
        s.technique,
        s.trials,
        s.quarantined,
        s.cache_hits,
        s.cache_misses
    )
}

/// `inner`, with every fit first meeting at a [`Rendezvous`]; otherwise
/// the same algorithm, so a run's bytes do not depend on the wrapper.
struct Met {
    inner: Arc<dyn AlgorithmSpec>,
    meet: Arc<Rendezvous>,
}

struct MetFit {
    inner: Box<dyn Classifier>,
    meet: Arc<Rendezvous>,
}

impl Classifier for MetFit {
    fn fit(&mut self, data: &Dataset, rows: &[usize]) -> Result<(), MlError> {
        self.meet.arrive();
        self.inner.fit(data, rows)
    }

    fn predict(&self, data: &Dataset, row: usize) -> usize {
        self.inner.predict(data, row)
    }

    fn predict_proba(&self, data: &Dataset, row: usize) -> Vec<f64> {
        self.inner.predict_proba(data, row)
    }
}

impl AlgorithmSpec for Met {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn family(&self) -> Family {
        self.inner.family()
    }

    fn param_space(&self) -> SearchSpace {
        self.inner.param_space()
    }

    fn default_config(&self) -> Config {
        self.inner.default_config()
    }

    fn check_applicable(&self, data: &Dataset) -> Result<(), MlError> {
        self.inner.check_applicable(data)
    }

    fn build(&self, config: &Config, seed: u64) -> Box<dyn Classifier> {
        Box::new(MetFit {
            inner: self.inner.build(config, seed),
            meet: Arc::clone(&self.meet),
        })
    }

    fn expensive(&self) -> bool {
        self.inner.expensive()
    }

    fn iteration_param(&self) -> Option<&'static str> {
        self.inner.iteration_param()
    }
}

/// Tune `inner` with `optimizer` on `executor` (traced in memory, own
/// cache, probe clock pinned so `auto` routes to the GA, the full
/// Hyperband grid). On a pool wider than one, the tune's gate arms a
/// rendezvous at the first trial batch, so two workers must fit models
/// in it; the probe's fits, before any batch, never wait.
fn tune_on(
    optimizer: InnerOptimizer,
    inner: Arc<dyn AlgorithmSpec>,
    data: &Dataset,
    executor: &Executor,
    tracer: Tracer,
) -> (Result<Solution, CoreError>, Arc<TrialCache>) {
    let meet = Arc::new(Rendezvous::default());
    let name = inner.name();
    let mut registry = Registry::new();
    registry.register(Arc::new(Met {
        inner,
        meet: Arc::clone(&meet),
    }));
    let cache = Arc::new(TrialCache::default());
    let mut udr = UdrConfig::fast()
        .with_optimizer(optimizer)
        .with_cache(Arc::clone(&cache))
        .with_tracer(Arc::new(tracer))
        .with_executor(executor.clone());
    udr.probe_clock = Arc::new(ManualClock::new());
    if optimizer == InnerOptimizer::Hyperband {
        udr.tuning_budget = Budget::evals(69);
    }
    if executor.threads() > 1 {
        udr = udr.with_gate(meet as Arc<dyn BatchGate>);
    }
    (udr.tune(&registry, name, data), cache)
}

/// One traced `tune` of Bagging: the solution, the trace bytes and the
/// cache counters.
fn udr_tune(optimizer: InnerOptimizer, data: &Dataset, executor: &Executor) -> [String; 3] {
    let bagging = Registry::fast()
        .require("Bagging")
        .expect("Bagging is registered")
        .clone();
    let (tracer, handle) = Tracer::in_memory();
    let (solution, cache) = tune_on(optimizer, bagging, data, executor, tracer);
    [
        solution_bytes(&solution.expect("UDR tunes Bagging")),
        handle.contents(),
        format!("{:?}", cache.stats()),
    ]
}

/// UDR's GA (`auto`), SHA and Hyperband tuning score their batches on
/// `UdrConfig::executor`; the tune must be the same bytes at any width,
/// and the wider runs must really have used several workers.
#[test]
fn udr_tune_is_byte_identical_at_1_2_and_8_threads() {
    let data = SynthSpec::new("udr", 200, 4, 1, 2, SynthFamily::Mixed, 31).generate();
    for optimizer in [
        InnerOptimizer::Auto,
        InnerOptimizer::Sha,
        InnerOptimizer::Hyperband,
    ] {
        let serial = udr_tune(optimizer, &data, &Executor::new(1));
        assert!(serial[1].contains("\"ev\""), "{optimizer}: trace is empty");
        for threads in [2usize, 8] {
            let executor = Executor::new(threads);
            let wide = udr_tune(optimizer, &data, &executor);
            for (part, (a, b)) in ["solution", "trace", "cache stats"]
                .iter()
                .zip(serial.iter().zip(&wide))
            {
                assert_eq!(a, b, "{optimizer}: {threads}-thread {part} diverged");
            }
            assert!(
                executor.peak_workers() > 1,
                "{optimizer}: {threads}-thread tune ran every trial on one worker"
            );
        }
    }
}

/// An algorithm whose every fit fails, with a message naming the config,
/// so an all-failed search has many distinct failures to choose from.
struct Unfittable;

struct FailingFit(String);

impl Classifier for FailingFit {
    fn fit(&mut self, _data: &Dataset, _rows: &[usize]) -> Result<(), MlError> {
        Err(MlError::TrainingFailed(format!("cannot fit {}", self.0)))
    }

    fn predict(&self, _data: &Dataset, _row: usize) -> usize {
        0
    }
}

impl AlgorithmSpec for Unfittable {
    fn name(&self) -> &'static str {
        "Unfittable"
    }

    fn family(&self) -> Family {
        Family::Misc
    }

    fn param_space(&self) -> SearchSpace {
        SearchSpace::builder()
            .add("c", Domain::float(0.0, 1.0))
            .add("k", Domain::int(1, 50))
            .build()
            .expect("space builds")
    }

    fn default_config(&self) -> Config {
        Config::new()
            .with("c", ParamValue::Float(0.5))
            .with("k", ParamValue::Int(3))
    }

    fn build(&self, config: &Config, _seed: u64) -> Box<dyn Classifier> {
        Box::new(FailingFit(config.to_string()))
    }
}

/// An all-failed tune reports one of its many failures; which one must
/// not depend on which worker failed last.
#[test]
fn all_failing_tune_reports_the_same_failure_at_1_2_and_8_threads() {
    let data = SynthSpec::new("fail", 60, 3, 0, 2, SynthFamily::Hyperplane, 5).generate();
    for optimizer in [
        InnerOptimizer::Auto,
        InnerOptimizer::Sha,
        InnerOptimizer::Hyperband,
    ] {
        let tune = |executor: &Executor| {
            let (solution, _) = tune_on(
                optimizer,
                Arc::new(Unfittable),
                &data,
                executor,
                Tracer::disabled(),
            );
            let err = solution.expect_err("every trial fails");
            assert!(
                matches!(err, CoreError::Trial(_)),
                "{optimizer}: expected a trial failure, got {err}"
            );
            err.to_string()
        };
        let serial = tune(&Executor::new(1));
        assert!(serial.contains("cannot fit"), "{optimizer}: {serial}");
        for threads in [2usize, 8] {
            let executor = Executor::new(threads);
            assert_eq!(
                serial,
                tune(&executor),
                "{optimizer}: {threads}-thread failure report diverged"
            );
            assert!(
                executor.peak_workers() > 1,
                "{optimizer}: {threads}-thread tune ran every trial on one worker"
            );
        }
    }
}
