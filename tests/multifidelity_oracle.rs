//! Promotion-oracle conformance for the multi-fidelity schedulers.
//!
//! Successive halving and Hyperband narrate their elimination schedule
//! through `RungStart`/`Promote`/`Eliminate` trace events. This suite
//! replays those traces and re-derives every decision independently:
//!
//! * each rung's promotion set must equal the top `⌊n/η⌋` (min 1) of the
//!   rung's *recorded* `trial_end` scores, compared by canonical float
//!   bits with lower-trial-index tie-breaks — in exact rank order;
//! * rung budgets must follow the `R/η` geometry exactly — candidate
//!   counts divide by `η` rung over rung, and fidelity fractions climb
//!   `r·η/r_max` to full;
//! * an eliminated configuration must never reappear at any higher
//!   fidelity of the same bracket, and the promoted set must be exactly
//!   the next rung's candidate set;
//! * a budget-interrupted rung must be the bracket's last and must emit
//!   no promotion events at all.
//!
//! On top of the oracle, the determinism matrix: trial histories *and*
//! trace bytes byte-identical at 1/2/8 threads with hostile faults and
//! the cache on; trace-on == trace-off; cache-on == cache-off; and
//! golden SHA/Hyperband histories pinned for seeds 97 and 4242
//! (regenerate deliberately with `AUTOMODEL_REGOLDEN=1`).
//!
//! The shared harness (space, fitness, hostile policy, serialization)
//! lives in `tests/common/mod.rs`.

mod common;

use auto_model::hpo::{
    canonical_f64_bits, Budget, Config, Executor, Fidelity, Hyperband, OptOutcome,
    OptimizerBuilder, SuccessiveHalving, TrialCache, TrialPolicy,
};
use auto_model::trace::{decode, TraceEvent, TraceRecord, Tracer};
use common::{
    assert_matches_golden, fitness, hostile_policy, quiet_injected_panics, space, trial_bytes,
    Rendezvous,
};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Fidelity-aware fitness over the shared [`space`]: the full-fidelity
/// score scaled by the row fraction, so cheap rungs measure a correlated
/// proxy and every (config, fidelity) pair scores deterministically.
fn mf_fitness(c: &Config, f: &Fidelity) -> f64 {
    fitness(c) * (0.5 + 0.5 * f.num() as f64 / f.den() as f64)
}

fn canon(score: f64) -> f64 {
    f64::from_bits(canonical_f64_bits(score))
}

/// Run one multi-fidelity optimizer; returns the outcome plus (when
/// `traced`) the decoded trace and its raw bytes.
fn mf_run(
    kind: &str,
    seed: u64,
    policy: TrialPolicy,
    budget: &Budget,
    threads: Option<usize>,
    cache: Arc<TrialCache>,
    traced: bool,
) -> (OptOutcome, Vec<TraceRecord>, String) {
    quiet_injected_panics();
    let space = space();
    let (tracer, handle) = Tracer::in_memory();
    let executor = threads.map(Executor::new);
    // The executor runs meet at a rendezvous, so their first batch
    // provably spreads over more than one worker.
    let meet = Rendezvous::for_width(threads.unwrap_or(1));
    let met_mf_fitness = |c: &Config, f: &Fidelity| {
        meet.arrive();
        mf_fitness(c, f)
    };
    let out = {
        match kind {
            "sha" => {
                let mut sha = SuccessiveHalving::new(seed)
                    .with_policy(policy)
                    .with_cache(cache);
                if traced {
                    sha = sha.with_tracer(Arc::new(tracer));
                }
                match &executor {
                    Some(executor) => {
                        sha.optimize_fidelity_batch(&space, &met_mf_fitness, budget, executor)
                    }
                    None => {
                        let mut obj = |c: &Config, f: &Fidelity| mf_fitness(c, f);
                        sha.optimize_fidelity(&space, &mut obj, budget)
                    }
                }
            }
            "hyperband" => {
                let mut hb = Hyperband::new(seed).with_policy(policy).with_cache(cache);
                if traced {
                    hb = hb.with_tracer(Arc::new(tracer));
                }
                match &executor {
                    Some(executor) => {
                        hb.optimize_fidelity_batch(&space, &met_mf_fitness, budget, executor)
                    }
                    None => {
                        let mut obj = |c: &Config, f: &Fidelity| mf_fitness(c, f);
                        hb.optimize_fidelity(&space, &mut obj, budget)
                    }
                }
            }
            other => panic!("unknown optimizer kind {other}"),
        }
    }
    .expect("run yields an outcome");
    if let Some(executor) = executor.filter(|e| e.threads() > 1) {
        assert!(
            executor.peak_workers() > 1,
            "{kind}: {}-thread run scored every trial on one worker",
            executor.threads()
        );
    }
    let raw = handle.contents();
    let records = if traced {
        decode(&raw).expect("captured trace decodes")
    } else {
        Vec::new()
    };
    (out, records, raw)
}

/// One rung as narrated by the trace.
#[derive(Debug)]
struct RungRecord {
    bracket: u64,
    rung: u64,
    candidates: u64,
    num: u64,
    den: u64,
    /// Trial indices evaluated in this rung, with their recorded scores,
    /// in emission (= trial-index) order.
    trials: Vec<(u64, f64)>,
    /// Promotion events at this rung's boundary, in emission order.
    promoted: Vec<u64>,
    eliminated: Vec<u64>,
}

/// Replay a trace into its rung schedule. Trial and promotion events are
/// attributed to the most recent `rung_start`; the events' own rung
/// numbers are cross-checked against it.
fn parse_rungs(records: &[TraceRecord]) -> Vec<RungRecord> {
    let mut rungs: Vec<RungRecord> = Vec::new();
    for r in records {
        match &r.event {
            TraceEvent::RungStart {
                bracket,
                rung,
                candidates,
                num,
                den,
            } => rungs.push(RungRecord {
                bracket: *bracket,
                rung: *rung,
                candidates: *candidates,
                num: *num,
                den: *den,
                trials: Vec::new(),
                promoted: Vec::new(),
                eliminated: Vec::new(),
            }),
            TraceEvent::TrialEnd { trial, score, .. } => {
                let current = rungs.last_mut().expect("trial_end before any rung_start");
                current.trials.push((*trial, *score));
            }
            TraceEvent::Promote { trial, rung } => {
                let current = rungs.last_mut().expect("promote before any rung_start");
                assert_eq!(*rung, current.rung, "promote names a foreign rung");
                current.promoted.push(*trial);
            }
            TraceEvent::Eliminate { trial, rung } => {
                let current = rungs.last_mut().expect("eliminate before any rung_start");
                assert_eq!(*rung, current.rung, "eliminate names a foreign rung");
                current.eliminated.push(*trial);
            }
            _ => {}
        }
    }
    rungs
}

/// The independent re-derivation: given the rung's recorded scores, the
/// promotion set is the top `⌊n/η⌋` (min 1) by canonical score bits,
/// lower trial index first on ties — returned in rank order.
fn derive_promotions(trials: &[(u64, f64)], eta: u64) -> (Vec<u64>, Vec<u64>) {
    let mut ranked: Vec<(u64, f64)> = trials.to_vec();
    ranked.sort_by(|a, b| {
        canon(a.1)
            .total_cmp(&canon(b.1))
            .reverse()
            .then(a.0.cmp(&b.0))
    });
    let keep = (trials.len() / eta as usize).max(1);
    let promoted = ranked[..keep].iter().map(|t| t.0).collect();
    let eliminated = ranked[keep..].iter().map(|t| t.0).collect();
    (promoted, eliminated)
}

/// Check the full oracle over one run's trace: promotion sets re-derive
/// from recorded scores, rung budgets follow the `R/η` geometry, and
/// eliminated configurations stay eliminated. `eta`/`r_max` are the
/// geometry the run was configured with.
fn assert_promotion_oracle(out: &OptOutcome, records: &[TraceRecord], eta: u64, r_max: u64) {
    let rungs = parse_rungs(records);
    assert!(!rungs.is_empty(), "no rung_start events in the trace");
    let config_of = |trial: u64| -> String {
        serde_json::to_string(&out.trials[trial as usize].config).expect("config serializes")
    };
    let gcd = |mut a: u64, mut b: u64| {
        while b != 0 {
            (a, b) = (b, a % b);
        }
        a
    };
    let last = rungs.len() - 1;
    for (i, rung) in rungs.iter().enumerate() {
        let first_of_bracket = rung.rung == 0;
        if !first_of_bracket {
            // Geometry: candidates divide by η rung over rung (min 1),
            // and the fidelity fraction multiplies by η.
            let prev = &rungs[i - 1];
            assert_eq!(
                prev.bracket, rung.bracket,
                "rung {i}: bracket skipped a rung"
            );
            assert_eq!(
                rung.rung,
                prev.rung + 1,
                "rung {i}: rung numbers must be dense"
            );
            assert_eq!(
                rung.candidates,
                (prev.candidates / eta).max(1),
                "rung {i}: candidate count violates the η-geometry"
            );
            // prev fraction · η == this fraction (compare cross-multiplied).
            assert_eq!(
                prev.num * eta * rung.den,
                rung.num * prev.den,
                "rung {i}: fidelity did not climb by η"
            );
        }
        // Every fraction is r/r_max for an integer resource r.
        assert_eq!(
            rung.num * r_max % rung.den,
            0,
            "rung {i}: fidelity {}/{} is not a resource level over r_max={r_max}",
            rung.num,
            rung.den
        );
        assert_eq!(gcd(rung.num, rung.den), 1, "rung {i}: fraction not reduced");

        let complete = rung.trials.len() as u64 == rung.candidates;
        if !complete {
            // Budget-interrupted rung: strictly fewer trials than
            // candidates, must be the very last rung, and must not have
            // promoted or eliminated anyone.
            assert!(
                (rung.trials.len() as u64) < rung.candidates,
                "rung {i}: more trials than candidates"
            );
            assert_eq!(i, last, "rung {i}: an incomplete rung must end the run");
            assert!(
                rung.promoted.is_empty() && rung.eliminated.is_empty(),
                "rung {i}: an incomplete rung must not eliminate anyone"
            );
            continue;
        }
        let final_rung = rung.num == rung.den || i == last || rungs[i + 1].rung == 0; // next bracket starts ⇒ this one ended
        if final_rung {
            assert!(
                rung.promoted.is_empty() && rung.eliminated.is_empty(),
                "rung {i}: a bracket's final rung has nothing to promote into"
            );
            continue;
        }
        // The oracle proper: re-derive the promotion decision from the
        // recorded scores alone and demand exact, ordered agreement.
        let (promoted, eliminated) = derive_promotions(&rung.trials, eta);
        assert_eq!(
            rung.promoted, promoted,
            "rung {i}: promotion events disagree with the score-derived ranking"
        );
        assert_eq!(
            rung.eliminated, eliminated,
            "rung {i}: elimination events disagree with the score-derived ranking"
        );
        // Promoted configs are exactly the next rung's candidates…
        let next = &rungs[i + 1];
        let promoted_configs: BTreeSet<String> =
            rung.promoted.iter().map(|&t| config_of(t)).collect();
        let next_configs: BTreeSet<String> =
            next.trials.iter().map(|&(t, _)| config_of(t)).collect();
        if next.trials.len() as u64 == next.candidates {
            assert_eq!(
                promoted_configs, next_configs,
                "rung {i}: the next rung's candidates are not the promoted set"
            );
        } else {
            assert!(
                next_configs.is_subset(&promoted_configs),
                "rung {i}: the next (partial) rung evaluated a non-promoted config"
            );
        }
        // …and eliminated configs never reappear at any higher fidelity
        // of the same bracket.
        let eliminated_configs: BTreeSet<String> =
            rung.eliminated.iter().map(|&t| config_of(t)).collect();
        for later in &rungs[i + 1..] {
            if later.bracket != rung.bracket {
                break;
            }
            for &(t, _) in &later.trials {
                assert!(
                    !eliminated_configs.contains(&config_of(t)),
                    "rung {i}: eliminated config resurfaced in bracket {} rung {}",
                    later.bracket,
                    later.rung
                );
            }
        }
    }
    // Every recorded trial belongs to exactly one rung.
    let rung_trials: usize = rungs.iter().map(|r| r.trials.len()).sum();
    assert_eq!(
        rung_trials,
        out.trials.len(),
        "trace rungs and outcome history disagree on trial count"
    );
}

#[test]
fn sha_promotions_re_derive_from_recorded_scores() {
    let (out, records, _) = mf_run(
        "sha",
        97,
        TrialPolicy::default(),
        &Budget::evals(40),
        Some(2),
        Arc::new(TrialCache::default()),
        true,
    );
    assert_eq!(out.trials.len(), 40, "one full bracket is 27+9+3+1 trials");
    assert_promotion_oracle(&out, &records, 3, 27);
}

#[test]
fn sha_oracle_holds_under_hostile_faults() {
    // ~10% injected panics + ~10% NaNs with no retries: failed trials
    // sink to the penalty score and the promotion ranking must still
    // re-derive exactly.
    let (out, records, _) = mf_run(
        "sha",
        4242,
        hostile_policy(),
        &Budget::evals(40),
        Some(8),
        Arc::new(TrialCache::default()),
        true,
    );
    assert_promotion_oracle(&out, &records, 3, 27);
    assert!(
        records
            .iter()
            .any(|r| matches!(r.event, TraceEvent::Fault { .. })),
        "hostile policy injected no faults — the oracle was not stressed"
    );
}

#[test]
fn hyperband_oracle_holds_across_all_brackets() {
    let (out, records, _) = mf_run(
        "hyperband",
        97,
        TrialPolicy::default(),
        &Budget::evals(69),
        Some(2),
        Arc::new(TrialCache::default()),
        true,
    );
    assert_eq!(out.trials.len(), 69, "the full bracket grid is 40+17+8+4");
    let brackets: BTreeSet<u64> = parse_rungs(&records).iter().map(|r| r.bracket).collect();
    assert_eq!(
        brackets,
        (0..4).collect(),
        "η=3, R=27 Hyperband runs four brackets"
    );
    assert_promotion_oracle(&out, &records, 3, 27);
}

#[test]
fn budget_tripped_rung_eliminates_no_one() {
    // 30 evals: rung 0 (27 trials) completes and promotes; rung 1 stops
    // after 3 of 9 — the oracle demands that partial rung stays silent.
    let (out, records, _) = mf_run(
        "sha",
        7,
        TrialPolicy::default(),
        &Budget::evals(30),
        Some(4),
        Arc::new(TrialCache::default()),
        true,
    );
    assert_eq!(out.trials.len(), 30);
    assert_promotion_oracle(&out, &records, 3, 27);
    let rungs = parse_rungs(&records);
    let tail = rungs.last().expect("two rungs ran");
    assert!(tail.trials.len() < tail.candidates as usize);
    assert!(tail.promoted.is_empty() && tail.eliminated.is_empty());
}

#[test]
fn histories_and_traces_are_identical_at_1_2_and_8_threads_under_faults() {
    for kind in ["sha", "hyperband"] {
        let budget = Budget::evals(if kind == "sha" { 40 } else { 69 });
        let run = |threads: usize| {
            mf_run(
                kind,
                97,
                hostile_policy(),
                &budget,
                Some(threads),
                Arc::new(TrialCache::default()),
                true,
            )
        };
        let (out_1, _, trace_1) = run(1);
        let bytes_1 = trial_bytes(&out_1);
        for threads in [2usize, 8] {
            let (out_n, _, trace_n) = run(threads);
            assert_eq!(
                bytes_1,
                trial_bytes(&out_n),
                "{kind}: {threads}-thread trial history diverged"
            );
            assert_eq!(
                trace_1, trace_n,
                "{kind}: {threads}-thread trace bytes diverged"
            );
        }
        // The serial entry point walks the same chunks: same bytes again.
        let (serial, _, serial_trace) = mf_run(
            kind,
            97,
            hostile_policy(),
            &budget,
            None,
            Arc::new(TrialCache::default()),
            true,
        );
        assert_eq!(
            bytes_1,
            trial_bytes(&serial),
            "{kind}: serial trial history diverged from parallel"
        );
        assert_eq!(
            trace_1, serial_trace,
            "{kind}: serial trace bytes diverged from parallel"
        );
    }
}

#[test]
fn tracing_and_caching_are_pure_observers() {
    for kind in ["sha", "hyperband"] {
        let budget = Budget::evals(if kind == "sha" { 40 } else { 69 });
        let run = |cache: Arc<TrialCache>, traced: bool| {
            let (out, _, _) = mf_run(
                kind,
                4242,
                TrialPolicy::default(),
                &budget,
                Some(2),
                cache,
                traced,
            );
            trial_bytes(&out)
        };
        let baseline = run(Arc::new(TrialCache::disabled()), false);
        assert_eq!(
            baseline,
            run(Arc::new(TrialCache::disabled()), true),
            "{kind}: tracing changed the trial history"
        );
        assert_eq!(
            baseline,
            run(Arc::new(TrialCache::default()), false),
            "{kind}: caching changed the trial history"
        );
        assert_eq!(
            baseline,
            run(Arc::new(TrialCache::default()), true),
            "{kind}: tracing+caching changed the trial history"
        );
    }
}

/// Golden serialization of a run: the incumbent (config + exact score
/// bits) followed by the full trial history.
fn golden_bytes(out: &OptOutcome) -> String {
    format!(
        "best|{}#{:016x}\n{}",
        serde_json::to_string(&out.best_config).expect("config serializes"),
        out.best_score.to_bits(),
        trial_bytes(out)
    )
}

/// Every (scheduler, seed) run must be byte-identical with the cache on
/// and off and match the history checked into `tests/golden/`.
/// Regenerate deliberately with `AUTOMODEL_REGOLDEN=1`.
#[test]
fn golden_sha_hyperband_histories_match_for_two_seeds() {
    for kind in ["sha", "hyperband"] {
        let budget = Budget::evals(if kind == "sha" { 40 } else { 69 });
        for seed in [97u64, 4242] {
            let run = |cache: Arc<TrialCache>| {
                let (out, _, _) = mf_run(
                    kind,
                    seed,
                    TrialPolicy::default(),
                    &budget,
                    Some(2),
                    cache,
                    false,
                );
                golden_bytes(&out)
            };
            let off = run(Arc::new(TrialCache::disabled()));
            let on = run(Arc::new(TrialCache::default()));
            assert_eq!(
                off, on,
                "{kind} seed {seed}: cache-on history diverged from cache-off"
            );
            assert_matches_golden(&format!("{kind}_seed{seed}.txt"), &off);
        }
    }
    assert!(
        !common::regolden(),
        "golden files regenerated; unset AUTOMODEL_REGOLDEN and re-run"
    );
}
