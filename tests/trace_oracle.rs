//! Trace-oracle conformance: the structured event stream must be a
//! faithful, complete account of the run it narrates. Decoded traces are
//! cross-checked against the [`OptOutcome`] the same run returned — every
//! trial appears exactly once with its exact score bits, span pairing is
//! well-formed, cache events reconcile with [`CacheStats`], and
//! fault/retry/quarantine events reconcile with the quarantine log. The
//! tracer is also proven to be a pure observer: the trial history with
//! tracing on is byte-identical to the history with tracing off.
//!
//! The shared harness (space, fitness, hostile policy, serialization)
//! lives in `tests/common/mod.rs`.

mod common;

use auto_model::hpo::{
    BayesianOptimization, Budget, Config, Executor, FaultPlan, FnObjective, GaConfig,
    GeneticAlgorithm, Optimizer, OptimizerBuilder, SmacLite, TrialCache, TrialPolicy,
};
use auto_model::trace::{decode, TraceEvent, TraceRecord, Tracer};
use common::{fitness, hostile_policy, quiet_injected_panics, space, trial_bytes, Rendezvous};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Run one optimizer with an in-memory tracer attached; return the
/// outcome, the decoded trace, and the raw trace bytes.
fn traced_run(
    kind: &str,
    seed: u64,
    policy: TrialPolicy,
    budget: &Budget,
    threads: Option<usize>,
) -> (auto_model::hpo::OptOutcome, Vec<TraceRecord>, String) {
    let space = space();
    let (tracer, handle) = Tracer::in_memory();
    let tracer = Arc::new(tracer);
    let cache = Arc::new(TrialCache::default());
    let out = match kind {
        "ga" => {
            let ga = GeneticAlgorithm::with_config(
                seed,
                GaConfig {
                    population: 10,
                    generations: 100, // bounded by the budget
                    ..GaConfig::default()
                },
            )
            .with_policy(policy)
            .with_cache(cache)
            .with_tracer(Arc::clone(&tracer));
            match threads {
                Some(n) => {
                    let executor = Executor::new(n);
                    let meet = Rendezvous::for_width(n);
                    let objective = |c: &Config| {
                        meet.arrive();
                        fitness(c)
                    };
                    let out = ga.optimize_batch(&space, &objective, budget, &executor);
                    assert!(
                        n == 1 || executor.peak_workers() > 1,
                        "{n}-thread GA scored every trial on one worker"
                    );
                    out
                }
                None => {
                    let mut ga = ga;
                    ga.optimize(&space, &mut FnObjective(fitness), budget)
                }
            }
        }
        "bo" => {
            let mut bo = BayesianOptimization::new(seed)
                .with_policy(policy)
                .with_cache(cache)
                .with_tracer(Arc::clone(&tracer));
            bo.optimize(&space, &mut FnObjective(fitness), budget)
        }
        "smac" => {
            let mut smac = SmacLite::new(seed)
                .with_policy(policy)
                .with_cache(cache)
                .with_tracer(Arc::clone(&tracer));
            smac.optimize(&space, &mut FnObjective(fitness), budget)
        }
        other => panic!("unknown optimizer kind {other}"),
    }
    .expect("run yields an outcome");
    let raw = handle.contents();
    let records = decode(&raw).expect("captured trace decodes");
    (out, records, raw)
}

/// The per-trial event groups of a decoded trace, in trial-index order.
fn by_trial(records: &[TraceRecord]) -> BTreeMap<u64, Vec<&TraceEvent>> {
    let mut map: BTreeMap<u64, Vec<&TraceEvent>> = BTreeMap::new();
    for r in records {
        if let Some(t) = r.event.trial() {
            map.entry(t).or_default().push(&r.event);
        }
    }
    map
}

/// Span pairing and ordering laws that hold for every optimizer trace:
/// one run span bracketing everything, well-nested batch spans, and for
/// every trial a start before any other event and an end after all of
/// them, inside exactly one batch span.
fn assert_well_formed(records: &[TraceRecord], label: &str) {
    assert!(
        matches!(
            records.first().map(|r| &r.event),
            Some(TraceEvent::RunStart { .. })
        ),
        "{label}: trace must open with run_start"
    );
    assert!(
        matches!(
            records.last().map(|r| &r.event),
            Some(TraceEvent::RunEnd { .. })
        ),
        "{label}: trace must close with run_end"
    );
    let mut open_batch: Option<u64> = None;
    let mut open_trials: Vec<u64> = Vec::new();
    for r in &records[1..records.len() - 1] {
        match &r.event {
            TraceEvent::RunStart { .. } | TraceEvent::RunEnd { .. } => {
                panic!("{label}: nested run span")
            }
            TraceEvent::BatchStart { first_trial, .. } => {
                assert!(open_batch.is_none(), "{label}: overlapping batch spans");
                open_batch = Some(*first_trial);
            }
            TraceEvent::BatchEnd { first_trial, .. } => {
                assert_eq!(
                    open_batch.take(),
                    Some(*first_trial),
                    "{label}: batch_end does not match the open batch"
                );
                assert!(
                    open_trials.is_empty(),
                    "{label}: batch closed with trial span(s) still open"
                );
            }
            TraceEvent::TrialStart { trial, .. } => {
                assert!(
                    open_batch.is_some(),
                    "{label}: trial {trial} started outside a batch span"
                );
                open_trials.push(*trial);
            }
            TraceEvent::TrialEnd { trial, .. } => {
                assert!(
                    open_trials.contains(trial),
                    "{label}: trial {trial} ended without a start"
                );
                open_trials.retain(|t| t != trial);
            }
            // Trial-scoped interior events must land inside their span.
            e => {
                if let Some(t) = e.trial() {
                    assert!(
                        open_trials.contains(&t),
                        "{label}: {} for trial {t} outside its span",
                        e.kind()
                    );
                }
            }
        }
    }
    assert!(open_batch.is_none(), "{label}: unclosed batch span");
    assert!(open_trials.is_empty(), "{label}: unclosed trial span(s)");
}

/// Decoded trace against the outcome it narrates: every recorded trial
/// exactly once, exact score bits, statuses matching the failure field,
/// cache events matching [`CacheStats`], quarantine events matching the
/// quarantine log, and fault arithmetic consistent with the retry policy.
fn assert_conforms(
    out: &auto_model::hpo::OptOutcome,
    records: &[TraceRecord],
    policy: &TrialPolicy,
    label: &str,
) {
    let groups = by_trial(records);
    assert_eq!(
        groups.len(),
        out.trials.len(),
        "{label}: trace narrates a different trial count than the outcome"
    );
    let mut cache_hits = 0u64;
    let mut cache_misses = 0u64;
    let mut quarantine_events: Vec<(u64, String)> = Vec::new();
    for trial in &out.trials {
        let idx = trial.index as u64;
        let events = groups
            .get(&idx)
            .unwrap_or_else(|| panic!("{label}: trial {idx} missing from the trace"));
        let starts = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::TrialStart { .. }))
            .count();
        assert_eq!(starts, 1, "{label}: trial {idx} must start exactly once");
        let ends: Vec<_> = events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::TrialEnd {
                    score,
                    attempts,
                    status,
                    ..
                } => Some((score, attempts, status)),
                _ => None,
            })
            .collect();
        assert_eq!(ends.len(), 1, "{label}: trial {idx} must end exactly once");
        let (score, attempts, status) = ends[0];
        assert_eq!(
            score.to_bits(),
            trial.score.to_bits(),
            "{label}: trial {idx} trace score diverged from the recorded trial"
        );
        let expected_status = if *attempts == 0 {
            "skipped"
        } else if trial.failure.is_some() {
            "failed"
        } else {
            "ok"
        };
        assert_eq!(
            status, expected_status,
            "{label}: trial {idx} status does not match its failure field"
        );
        let faults = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Fault { .. }))
            .count() as u64;
        let retries = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Retry { .. }))
            .count() as u64;
        // A warm hit is a cache hit served from a restored snapshot; the
        // telemetry counts it in `hits` like any other.
        let hit = events
            .iter()
            .any(|e| matches!(e, TraceEvent::CacheHit { .. } | TraceEvent::WarmHit { .. }));
        let miss = events
            .iter()
            .any(|e| matches!(e, TraceEvent::CacheMiss { .. }));
        assert!(
            !(hit && miss),
            "{label}: trial {idx} both hit and missed the cache"
        );
        cache_hits += hit as u64;
        cache_misses += miss as u64;
        if miss {
            // A live evaluation's attempts arithmetic: one fault per failed
            // attempt, one retry per granted extra attempt, all bounded by
            // the policy.
            assert!(
                *attempts <= policy.max_attempts as u64,
                "{label}: trial {idx} exceeded max_attempts"
            );
            assert_eq!(
                retries,
                attempts.saturating_sub(1),
                "{label}: trial {idx} retries must be attempts - 1"
            );
            if status == "failed" {
                assert_eq!(
                    faults, *attempts,
                    "{label}: failed trial {idx} must log one fault per attempt"
                );
            } else if status == "ok" {
                assert_eq!(
                    faults, retries,
                    "{label}: ok trial {idx} must log one fault per absorbed attempt"
                );
            }
        } else {
            // Cache hits and quarantine skips replay without re-running the
            // objective, so they must not log live-evaluation events.
            assert_eq!(
                faults + retries,
                0,
                "{label}: replayed trial {idx} logged live fault/retry events"
            );
        }
        for e in events {
            if let TraceEvent::Quarantine { trial, config } = e {
                quarantine_events.push((*trial, config.clone()));
            }
        }
    }
    assert_eq!(
        (cache_hits, cache_misses),
        (out.cache.hits, out.cache.misses),
        "{label}: cache events diverged from CacheStats telemetry"
    );
    assert_eq!(
        quarantine_events.len(),
        out.quarantine.len(),
        "{label}: quarantine events diverged from the quarantine log"
    );
    for ((trial, config), record) in quarantine_events.iter().zip(&out.quarantine) {
        assert_eq!(
            *trial, record.trial_index as u64,
            "{label}: quarantine event order diverged from the log"
        );
        assert_eq!(
            config, &record.key,
            "{label}: quarantine event names a different config than the log"
        );
    }
    // Skipped trials exist iff some config was quarantined mid-run and
    // re-proposed; each must carry the quarantine_skip marker.
    for trial in &out.trials {
        let events = &groups[&(trial.index as u64)];
        let skip_marked = events
            .iter()
            .any(|e| matches!(e, TraceEvent::QuarantineSkip { .. }));
        let skipped = events
            .iter()
            .any(|e| matches!(e, TraceEvent::TrialEnd { attempts, .. } if *attempts == 0));
        assert_eq!(
            skip_marked, skipped,
            "{label}: trial {} skip marker and zero-attempt end must coincide",
            trial.index
        );
    }
}

#[test]
fn clean_runs_conform_for_all_three_optimizers() {
    let budget = Budget::evals(40);
    for kind in ["ga", "bo", "smac"] {
        let policy = TrialPolicy::default();
        let (out, records, _) = traced_run(kind, 97, policy.clone(), &budget, None);
        assert_well_formed(&records, kind);
        assert_conforms(&out, &records, &policy, kind);
        assert!(
            out.quarantine.is_empty(),
            "{kind}: clean objective must not quarantine"
        );
    }
}

#[test]
fn hostile_runs_conform_and_narrate_every_quarantine() {
    quiet_injected_panics();
    let budget = Budget::evals(60);
    for kind in ["ga", "bo", "smac"] {
        let policy = hostile_policy();
        let (out, records, _) = traced_run(kind, 97, policy.clone(), &budget, None);
        assert_well_formed(&records, kind);
        assert_conforms(&out, &records, &policy, kind);
        assert!(
            !out.quarantine.is_empty(),
            "{kind}: hostile rates with no retries must quarantine"
        );
        let faults = records
            .iter()
            .filter(|r| matches!(r.event, TraceEvent::Fault { .. }))
            .count();
        assert!(faults > 0, "{kind}: injected faults must be narrated");
    }
}

#[test]
fn retry_absorbed_faults_are_narrated_as_retries() {
    quiet_injected_panics();
    // Faults fire on attempt 0 only, so two attempts absorb every injected
    // fault: the trace must show fault+retry pairs, an all-ok history, and
    // an empty quarantine.
    let policy = TrialPolicy::default()
        .with_max_attempts(2)
        .with_faults(FaultPlan::with_rates(5, 0.15, 0.15, 0.0));
    let (out, records, _) = traced_run("ga", 97, policy.clone(), &Budget::evals(60), None);
    assert_well_formed(&records, "ga-retry");
    assert_conforms(&out, &records, &policy, "ga-retry");
    assert!(out.quarantine.is_empty(), "retries must absorb every fault");
    let faults = records
        .iter()
        .filter(|r| matches!(r.event, TraceEvent::Fault { .. }))
        .count();
    let retries = records
        .iter()
        .filter(|r| matches!(r.event, TraceEvent::Retry { .. }))
        .count();
    assert!(faults > 0, "fault rates of 15% must inject something");
    assert_eq!(
        faults, retries,
        "every attempt-0 fault must be followed by exactly one retry"
    );
    assert!(
        out.trials.iter().all(|t| t.failure.is_none()),
        "absorbed faults must leave no failed trials"
    );
}

#[test]
fn parallel_ga_trace_conforms_under_faults() {
    quiet_injected_panics();
    let policy = hostile_policy();
    let budget = Budget::evals(120);
    for threads in [1usize, 2, 8] {
        let (out, records, _) = traced_run("ga", 97, policy.clone(), &budget, Some(threads));
        assert_well_formed(&records, "ga-parallel");
        assert_conforms(&out, &records, &policy, "ga-parallel");
    }
}

#[test]
fn tracing_is_a_pure_observer_of_the_trial_history() {
    quiet_injected_panics();
    let budget = Budget::evals(60);
    for kind in ["ga", "bo", "smac"] {
        let (traced, _, _) = traced_run(kind, 97, hostile_policy(), &budget, None);
        // The same run with the default (disabled) tracer.
        let space = space();
        let cache = Arc::new(TrialCache::default());
        let untraced = match kind {
            "ga" => {
                let mut ga = GeneticAlgorithm::with_config(
                    97,
                    GaConfig {
                        population: 10,
                        generations: 100,
                        ..GaConfig::default()
                    },
                )
                .with_policy(hostile_policy())
                .with_cache(cache);
                ga.optimize(&space, &mut FnObjective(fitness), &budget)
            }
            "bo" => {
                let mut bo = BayesianOptimization::new(97)
                    .with_policy(hostile_policy())
                    .with_cache(cache);
                bo.optimize(&space, &mut FnObjective(fitness), &budget)
            }
            "smac" => {
                let mut smac = SmacLite::new(97)
                    .with_policy(hostile_policy())
                    .with_cache(cache);
                smac.optimize(&space, &mut FnObjective(fitness), &budget)
            }
            other => panic!("unknown optimizer kind {other}"),
        }
        .expect("run yields an outcome");
        assert_eq!(
            trial_bytes(&untraced),
            trial_bytes(&traced),
            "{kind}: enabling the tracer changed the trial history"
        );
    }
}

#[test]
fn summary_counters_match_the_decoded_stream() {
    quiet_injected_panics();
    let policy = hostile_policy();
    let space = space();
    let (tracer, handle) = Tracer::in_memory();
    let tracer = Arc::new(tracer);
    let mut ga = GeneticAlgorithm::with_config(
        97,
        GaConfig {
            population: 10,
            generations: 100,
            ..GaConfig::default()
        },
    )
    .with_policy(policy)
    .with_cache(Arc::new(TrialCache::default()))
    .with_tracer(Arc::clone(&tracer));
    let out = ga
        .optimize(&space, &mut FnObjective(fitness), &Budget::evals(60))
        .expect("run yields an outcome");
    let records = decode(&handle.contents()).expect("captured trace decodes");
    let summary = tracer.summary().expect("enabled tracer keeps a summary");

    let count =
        |pred: fn(&TraceEvent) -> bool| records.iter().filter(|r| pred(&r.event)).count() as u64;
    assert_eq!(
        summary.runs,
        count(|e| matches!(e, TraceEvent::RunEnd { .. }))
    );
    assert_eq!(
        summary.batches,
        count(|e| matches!(e, TraceEvent::BatchEnd { .. }))
    );
    assert_eq!(
        summary.trials,
        count(|e| matches!(e, TraceEvent::TrialEnd { .. }))
    );
    assert_eq!(summary.trials, out.trials.len() as u64);
    assert_eq!(
        summary.cache_hits,
        count(|e| matches!(e, TraceEvent::CacheHit { .. } | TraceEvent::WarmHit { .. }))
    );
    assert_eq!(
        summary.warm_hits,
        count(|e| matches!(e, TraceEvent::WarmHit { .. }))
    );
    assert_eq!(
        summary.cache_misses,
        count(|e| matches!(e, TraceEvent::CacheMiss { .. }))
    );
    assert_eq!(
        summary.faults,
        count(|e| matches!(e, TraceEvent::Fault { .. }))
    );
    assert_eq!(
        summary.retries,
        count(|e| matches!(e, TraceEvent::Retry { .. }))
    );
    assert_eq!(
        summary.quarantined,
        count(|e| matches!(e, TraceEvent::Quarantine { .. }))
    );
    assert_eq!(summary.quarantined, out.quarantine.len() as u64);
    assert_eq!(
        summary.ok + summary.failed + summary.skipped,
        summary.trials,
        "trial statuses must partition the trial count"
    );
    assert_eq!(
        summary.budget_trips,
        count(|e| matches!(e, TraceEvent::BudgetExhausted { .. }))
    );
}
