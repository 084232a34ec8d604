//! Table X: Auto-Model vs Auto-Weka on the CASH-Weka problem.
//!
//! For each Table XI test dataset and each of two **wall-clock** budgets
//! (the paper's 30 s and 5 min, scaled but keeping the 1:10 ratio), run
//! both CASH solvers `repetitions` times and report the average `f(T, D)`
//! — the CV accuracy of the returned (algorithm, hyperparameter) solution,
//! re-measured with an independent fold seed. Wall-clock budgets matter:
//! the paper's mechanism is Auto-Weka *wasting time* on expensive
//! inappropriate algorithms, which only shows up under time accounting.
//! Cells where a method cannot finish (the paper's `-1` entries for
//! D17/D20 at 5 min) would appear as `-1`.
//!
//! Run: `cargo run --release -p automodel-bench --bin exp_cash_comparison
//! [--scale tiny|small|paper] [--json]`

use automodel_bench::report::{fmt_score, Table};
use automodel_bench::{PipelineCache, Scale};
use automodel_core::udr::UdrConfig;
use automodel_core::AutoWekaConfig;
use automodel_hpo::{Budget, Executor};
use automodel_ml::{cross_val_accuracy, Registry};
use automodel_trace::TraceEvent;
use std::sync::Arc;
use std::time::Duration;

/// Re-measure a solution with an independent fold seed (the paper's f(T,D)).
fn f_t_d(
    registry: &Registry,
    solution: &automodel_core::udr::Solution,
    data: &automodel_data::Dataset,
    folds: usize,
) -> Option<f64> {
    let spec = registry.get(&solution.algorithm)?;
    cross_val_accuracy(|| spec.build(&solution.config, 4242), data, folds, 4242).ok()
}

fn main() {
    let scale = Scale::from_args();
    let json = std::env::args().any(|a| a == "--json");
    let tracer = automodel_bench::tracer_or_die("exp_cash_comparison");

    let pipeline = PipelineCache::new(Registry::full(), scale).with_tracer(Arc::clone(&tracer));
    tracer.emit(TraceEvent::stage_start("knowledge base"));
    let kb = pipeline.build_knowledge_base();
    tracer.emit(TraceEvent::stage_end(
        "knowledge base",
        format!("{} dataset(s)", kb.datasets.len()),
    ));
    let dmd = pipeline.run_dmd(&kb).expect("DMD must produce a model");

    tracer.emit(TraceEvent::stage_start("CASH comparison"));
    let suite = pipeline.test_suite();
    let (small_budget, large_budget) = scale.cash_budgets();
    let reps = scale.repetitions();
    let folds = scale.cash_folds();

    let budget_label = |b: &Budget| match (b.max_time, b.max_evals) {
        (Some(t), _) => format!("{} ms", t.as_millis()),
        (None, Some(n)) => format!("{n} evals"),
        _ => "unbounded".to_string(),
    };
    let mut table = Table::new(
        "Table X — average f(T, D), Auto-Model vs Auto-Weka",
        &["budget", "method", "dataset", "f(T,D)", "algorithm"],
    );
    let mut summary: Vec<(String, String, f64, usize)> = Vec::new(); // (budget, method, sum, wins)

    let executor = Executor::new(scale.threads());
    for (budget_name, budget) in [("small", &small_budget), ("large", &large_budget)] {
        // One independent cell per dataset — fan them out on the executor;
        // every solver call is seeded per-cell, so results are identical at
        // any thread count.
        let registry = &pipeline.ctx.registry;
        let dmd_ref = &dmd;
        let suite_ref = &suite;
        // (am_avg, aw_avg, am_alg, aw_alg, quarantined, cache_hits, cache_misses)
        let cells: Vec<(f64, f64, String, String, usize, u64, u64)> =
            executor.map(suite.len(), |idx| {
                let (symbol, data) = &suite_ref[idx];
                let mut am_avg = 0.0;
                let mut aw_avg = 0.0;
                let mut am_alg = String::new();
                let mut aw_alg = String::new();
                let mut quarantined = 0usize;
                let mut cache_hits = 0u64;
                let mut cache_misses = 0u64;
                for rep in 0..reps {
                    // Auto-Model: UDR with the given tuning budget. Its
                    // tuning runs serial like Auto-Weka's SMAC-lite: under
                    // a wall-clock budget a wider pool would buy it more
                    // compute than its rival, and it would nest inside the
                    // cell executor.
                    let udr = UdrConfig {
                        tuning_budget: budget.clone(),
                        eval_time_threshold: Duration::from_millis(400),
                        cv_folds: folds,
                        seed: 1000 + rep as u64,
                        executor: Executor::serial(),
                        ..UdrConfig::fast()
                    };
                    if let Ok(am) = udr.solve(dmd_ref, data) {
                        am_avg += f_t_d(registry, &am, data, folds).unwrap_or(0.0);
                        am_alg = am.algorithm;
                        quarantined += am.quarantined;
                        cache_hits += am.cache_hits;
                        cache_misses += am.cache_misses;
                    }
                    // Auto-Weka: SMAC over the hierarchical CASH space.
                    let aw = AutoWekaConfig {
                        budget: budget.clone(),
                        cv_folds: folds,
                        seed: 2000 + rep as u64,
                        ..AutoWekaConfig::fast()
                    }
                    .solve(registry, data);
                    if let Ok(aw) = aw {
                        aw_avg += f_t_d(registry, &aw, data, folds).unwrap_or(0.0);
                        aw_alg = aw.algorithm;
                        quarantined += aw.quarantined;
                        cache_hits += aw.cache_hits;
                        cache_misses += aw.cache_misses;
                    }
                }
                am_avg /= reps as f64;
                aw_avg /= reps as f64;
                // Cells complete in scheduling order, so these narration
                // events interleave under a multi-threaded executor.
                tracer.emit(TraceEvent::stage_end(
                    format!("[{budget_name}] {symbol}"),
                    format!(
                        "AM {am_avg:.3} vs AW {aw_avg:.3} \
                         ({quarantined} config(s) quarantined, \
                         cache {cache_hits} hit(s) / {cache_misses} miss(es))"
                    ),
                ));
                (
                    am_avg,
                    aw_avg,
                    am_alg,
                    aw_alg,
                    quarantined,
                    cache_hits,
                    cache_misses,
                )
            });

        let mut am_scores = Vec::new();
        let mut aw_scores = Vec::new();
        let mut am_wins = 0usize;
        let mut total_quarantined = 0usize;
        let mut total_hits = 0u64;
        let mut total_misses = 0u64;
        for (idx, (am_avg, aw_avg, am_alg, aw_alg, quarantined, hits, misses)) in
            cells.into_iter().enumerate()
        {
            let symbol = &suite[idx].0;
            table.row(vec![
                budget_label(budget),
                "Auto-Model".into(),
                symbol.clone(),
                fmt_score(Some(am_avg)),
                am_alg,
            ]);
            table.row(vec![
                budget_label(budget),
                "Auto-Weka".into(),
                symbol.clone(),
                fmt_score(Some(aw_avg)),
                aw_alg,
            ]);
            am_scores.push(am_avg);
            aw_scores.push(aw_avg);
            total_quarantined += quarantined;
            total_hits += hits;
            total_misses += misses;
            if am_avg >= aw_avg {
                am_wins += 1;
            }
        }
        let lookups = total_hits + total_misses;
        let cache_note = if lookups > 0 {
            format!(
                "cache {total_hits} hit(s) / {total_misses} miss(es) ({:.1}% hit rate)",
                100.0 * total_hits as f64 / lookups as f64
            )
        } else {
            "cache disabled (AUTOMODEL_CACHE=0)".to_string()
        };
        tracer.emit(TraceEvent::stage_end(
            format!("[{budget_name}] suite"),
            format!("{total_quarantined} config(s) quarantined, {cache_note}"),
        ));
        let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        summary.push((
            budget_label(budget),
            "Auto-Model".into(),
            avg(&am_scores),
            am_wins,
        ));
        summary.push((
            budget_label(budget),
            "Auto-Weka".into(),
            avg(&aw_scores),
            suite.len() - am_wins,
        ));
    }
    tracer.emit(TraceEvent::stage_end(
        "CASH comparison",
        format!("{} dataset(s) x 2 budget(s)", suite.len()),
    ));
    table.print();
    if let Some(summary) = tracer.summary() {
        eprintln!("{}", summary.render());
    }

    let mut sum_table = Table::new(
        "Table X summary — averages over the suite",
        &["budget", "method", "avg f(T,D)", "wins-or-ties"],
    );
    for (budget, method, avg, wins) in &summary {
        sum_table.row(vec![
            budget.clone(),
            method.clone(),
            format!("{avg:.3}"),
            wins.to_string(),
        ]);
    }
    sum_table.print();

    if json {
        let out = serde_json::json!({
            "scale": format!("{scale:?}"),
            "table10": table.to_json(),
            "summary": sum_table.to_json(),
        });
        println!("{}", serde_json::to_string_pretty(&out).unwrap());
    }
}
