//! Multi-fidelity evaluation for the CASH pipelines: CV objectives that
//! actually get cheaper at low fidelity, and the inner-optimizer switch
//! that routes UDR / Auto-Weka onto successive halving or Hyperband.
//!
//! A [`Fidelity`] maps onto three cost levers here:
//!
//! * **rows** — the dataset is replaced by its seeded stratified nested
//!   subset ([`stratified_nested_rows`]) at the rung's row fraction;
//!   subsets are memoized per fraction, so every trial of a rung (and
//!   every revisit of the fraction) sees the identical rows;
//! * **folds** — CV folds scale with the fraction (never below 2), or
//!   follow the fidelity's explicit override;
//! * **iterations** — when the algorithm advertises an
//!   [`iteration_param`](automodel_ml::AlgorithmSpec::iteration_param),
//!   its configured value is scaled by the row fraction (and clipped by
//!   the fidelity's explicit cap, when one is set) before the model is
//!   built.
//!
//! All three are pure functions of `(dataset, config, fidelity, seed)` —
//! no wall clock, no thread state — so multi-fidelity runs inherit the
//! workspace's byte-identical replay guarantees unchanged.

use crate::autoweka::AutoWekaConfig;
use automodel_data::{stratified_nested_rows, DataError, Dataset};
use automodel_hpo::{
    BatchFidelityObjective, Config, Fidelity, FidelityObjective, ParamValue, TrialFailure,
    TrialOutcome,
};
use automodel_ml::{cross_val_accuracy, AlgorithmSpec, Registry};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// Which optimizer drives the hyperparameter search inside UDR and the
/// Auto-Weka baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum InnerOptimizer {
    /// The paper's routing: probe evaluation cost, then GA or BO (UDR);
    /// SMAC-lite (Auto-Weka).
    #[default]
    Auto,
    /// One deterministic successive-halving bracket over the fidelity
    /// ladder.
    Sha,
    /// The full Hyperband bracket grid.
    Hyperband,
}

impl InnerOptimizer {
    /// Parse a CLI-style name (`auto`, `sha`, `successive-halving`,
    /// `hyperband`).
    pub fn parse(name: &str) -> Option<InnerOptimizer> {
        match name {
            "auto" => Some(InnerOptimizer::Auto),
            "sha" | "successive-halving" => Some(InnerOptimizer::Sha),
            "hyperband" => Some(InnerOptimizer::Hyperband),
            _ => None,
        }
    }
}

impl fmt::Display for InnerOptimizer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            InnerOptimizer::Auto => "auto",
            InnerOptimizer::Sha => "successive-halving",
            InnerOptimizer::Hyperband => "hyperband",
        })
    }
}

/// Salt for the subset-sampling seed stream, so row subsets never reuse
/// the probe or CV RNG streams.
const SUBSET_SALT: u64 = 0x51D;

/// Memoized fidelity subsets of one dataset, shared by every worker of a
/// batch. Keyed by the reduced row fraction, so every evaluation at a
/// fraction — across rungs, brackets, optimizers and threads — sees the
/// identical rows. A subset is a pure function of `(data, fraction,
/// seed)`, so which worker builds it first cannot change its rows.
struct SubsetMemo {
    subsets: Mutex<BTreeMap<(u32, u32), Arc<Dataset>>>,
}

impl SubsetMemo {
    fn new() -> SubsetMemo {
        SubsetMemo {
            subsets: Mutex::new(BTreeMap::new()),
        }
    }

    /// The rows to evaluate on at `fidelity`: `None` at the full row
    /// fraction (evaluate on `data` itself), else the memoized subset.
    /// The lock covers only the lookup and a first build, never a trial.
    fn at(
        &self,
        data: &Dataset,
        fidelity: &Fidelity,
        seed: u64,
    ) -> Result<Option<Arc<Dataset>>, DataError> {
        if fidelity.num() == fidelity.den() {
            return Ok(None);
        }
        let key = (fidelity.num(), fidelity.den());
        let mut subsets = self.subsets.lock();
        if let Some(subset) = subsets.get(&key) {
            return Ok(Some(Arc::clone(subset)));
        }
        let rows = stratified_nested_rows(data, key.0, key.1, seed ^ SUBSET_SALT);
        let subset = Arc::new(data.subset(&rows)?);
        subsets.insert(key, Arc::clone(&subset));
        Ok(Some(subset))
    }
}

/// The failure an all-failed search reports, chosen by a rule that does
/// not depend on worker scheduling: of every failed evaluation, the one
/// with the smallest key (config, plus fidelity where it varies). Under
/// an evaluation-count budget the evaluated set is the same at any
/// thread count, so the report is too.
#[derive(Default)]
pub(crate) struct FailureLog {
    smallest: Mutex<Option<(String, TrialFailure)>>,
}

impl FailureLog {
    /// Turn an evaluation error into a failed outcome, keeping its
    /// failure when `key` sorts before every failure seen so far.
    pub(crate) fn fail(&self, key: impl FnOnce() -> String, message: String) -> TrialOutcome {
        let outcome = TrialOutcome::Diverged(message);
        if let Some(failure) = outcome.failure() {
            let key = key();
            let mut smallest = self.smallest.lock();
            if smallest.as_ref().is_none_or(|(k, _)| key < *k) {
                *smallest = Some((key, failure));
            }
        }
        outcome
    }

    /// The reported failure, if any evaluation failed.
    pub(crate) fn get(&self) -> Option<TrialFailure> {
        self.smallest.lock().as_ref().map(|(_, f)| f.clone())
    }
}

/// CV fold count at a fidelity: the explicit override when set, else the
/// base fold count scaled by the row fraction, floored at 2 (a 1-fold
/// "CV" is not a cross-validation).
fn folds_at(base: usize, fidelity: &Fidelity) -> usize {
    if fidelity.cv_folds > 0 {
        fidelity.cv_folds as usize
    } else {
        fidelity.scale(base).clamp(2, base.max(2))
    }
}

/// Scale the spec's iteration parameter (when it has one) down to the
/// fidelity: the configured value is multiplied by the row fraction
/// (ceil, min 1), then clipped by the explicit epoch cap when set.
fn capped_config(spec: &dyn AlgorithmSpec, config: &Config, fidelity: &Fidelity) -> Config {
    let Some(param) = spec.iteration_param() else {
        return config.clone();
    };
    let Some(ParamValue::Int(v)) = config.get(param) else {
        return config.clone();
    };
    let mut iters = *v;
    if fidelity.num() < fidelity.den() && iters > 0 {
        iters = fidelity.scale(iters as usize) as i64;
    }
    if fidelity.epoch_cap > 0 {
        iters = iters.min(fidelity.epoch_cap as i64).max(1);
    }
    if iters == *v {
        return config.clone();
    }
    config.clone().with(param, ParamValue::Int(iters))
}

/// The failure key of an evaluation at a fidelity.
fn failure_key(config: &Config, fidelity: &Fidelity) -> String {
    format!("{config} @ {fidelity}")
}

/// The single-algorithm tuning objective `f(λ, SA, I)` *at a fidelity*:
/// UDR's [`CvObjective`](crate::udr) with the three cost levers applied.
/// Shared by every worker of a batch (the subset memo is shared too, so
/// concurrent trials read the same rows). Evaluation errors become failed
/// [`TrialOutcome`]s; see [`FidelityCvObjective::failure`] for the one an
/// all-failed search reports.
pub struct FidelityCvObjective<'a> {
    spec: &'a Arc<dyn AlgorithmSpec>,
    data: &'a Dataset,
    folds: usize,
    seed: u64,
    memo: SubsetMemo,
    failures: FailureLog,
}

impl<'a> FidelityCvObjective<'a> {
    pub fn new(
        spec: &'a Arc<dyn AlgorithmSpec>,
        data: &'a Dataset,
        folds: usize,
        seed: u64,
    ) -> FidelityCvObjective<'a> {
        FidelityCvObjective {
            spec,
            data,
            folds,
            seed,
            memo: SubsetMemo::new(),
            failures: FailureLog::default(),
        }
    }

    /// The failure of the smallest-keyed failed evaluation so far (for
    /// error reporting upstream); independent of the thread count.
    pub fn failure(&self) -> Option<TrialFailure> {
        self.failures.get()
    }
}

impl BatchFidelityObjective for FidelityCvObjective<'_> {
    fn evaluate_at(&self, config: &Config, fidelity: &Fidelity) -> TrialOutcome {
        let spec = self.spec;
        let seed = self.seed;
        let fail = |message: String| {
            self.failures
                .fail(|| failure_key(config, fidelity), message)
        };
        let subset = match self.memo.at(self.data, fidelity, seed) {
            Ok(subset) => subset,
            Err(e) => return fail(e.to_string()),
        };
        let rows = subset.as_deref().unwrap_or(self.data);
        let folds = folds_at(self.folds, fidelity);
        let tuned = capped_config(spec.as_ref(), config, fidelity);
        match cross_val_accuracy(|| spec.build(&tuned, seed), rows, folds, seed) {
            Ok(score) => TrialOutcome::from_score(score),
            Err(e) => fail(e.to_string()),
        }
    }
}

/// The serial view of the same objective, for callers that evaluate one
/// trial at a time.
impl FidelityObjective for FidelityCvObjective<'_> {
    fn evaluate_at(&mut self, config: &Config, fidelity: &Fidelity) -> TrialOutcome {
        BatchFidelityObjective::evaluate_at(&*self, config, fidelity)
    }
}

/// The hierarchical CASH objective *at a fidelity* — the Auto-Weka
/// baseline's objective with the same three cost levers. Auto-Weka's
/// schedulers evaluate it one trial at a time.
pub struct FidelityCashObjective<'a> {
    registry: &'a Registry,
    data: &'a Dataset,
    folds: usize,
    seed: u64,
    memo: SubsetMemo,
    failures: FailureLog,
}

impl<'a> FidelityCashObjective<'a> {
    pub fn new(
        registry: &'a Registry,
        data: &'a Dataset,
        folds: usize,
        seed: u64,
    ) -> FidelityCashObjective<'a> {
        FidelityCashObjective {
            registry,
            data,
            folds,
            seed,
            memo: SubsetMemo::new(),
            failures: FailureLog::default(),
        }
    }

    /// The failure of the smallest-keyed failed evaluation so far.
    pub fn failure(&self) -> Option<TrialFailure> {
        self.failures.get()
    }
}

impl FidelityObjective for FidelityCashObjective<'_> {
    fn evaluate_at(&mut self, config: &Config, fidelity: &Fidelity) -> TrialOutcome {
        let fail = |message: String| {
            self.failures
                .fail(|| failure_key(config, fidelity), message)
        };
        let Some((name, sub)) = AutoWekaConfig::split_config(self.registry, self.data, config)
        else {
            return fail("config names no applicable algorithm".into());
        };
        let Some(spec) = self.registry.get(&name) else {
            return fail(format!("algorithm '{name}' is not registered"));
        };
        let seed = self.seed;
        let subset = match self.memo.at(self.data, fidelity, seed) {
            Ok(subset) => subset,
            Err(e) => return fail(e.to_string()),
        };
        let rows = subset.as_deref().unwrap_or(self.data);
        let folds = folds_at(self.folds, fidelity);
        let tuned = capped_config(spec.as_ref(), &sub, fidelity);
        match cross_val_accuracy(|| spec.build(&tuned, seed), rows, folds, seed) {
            Ok(score) => TrialOutcome::from_score(score),
            Err(e) => fail(e.to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use automodel_data::{SynthFamily, SynthSpec};

    #[test]
    fn inner_optimizer_parses_cli_names() {
        assert_eq!(InnerOptimizer::parse("auto"), Some(InnerOptimizer::Auto));
        assert_eq!(InnerOptimizer::parse("sha"), Some(InnerOptimizer::Sha));
        assert_eq!(
            InnerOptimizer::parse("successive-halving"),
            Some(InnerOptimizer::Sha)
        );
        assert_eq!(
            InnerOptimizer::parse("hyperband"),
            Some(InnerOptimizer::Hyperband)
        );
        assert_eq!(InnerOptimizer::parse("smac"), None);
        assert_eq!(InnerOptimizer::Sha.to_string(), "successive-halving");
    }

    #[test]
    fn folds_scale_with_fidelity_but_never_below_two() {
        assert_eq!(folds_at(10, &Fidelity::full()), 10);
        assert_eq!(folds_at(10, &Fidelity::fraction(1, 3)), 4); // ceil(10/3)
        assert_eq!(folds_at(10, &Fidelity::fraction(1, 27)), 2);
        assert_eq!(folds_at(3, &Fidelity::fraction(1, 9)), 2);
        // Explicit override wins.
        assert_eq!(folds_at(10, &Fidelity::fraction(1, 3).with_cv_folds(7)), 7);
    }

    #[test]
    fn iteration_caps_scale_the_advertised_parameter_only() {
        let registry = Registry::full();
        let mlp = registry.require("MultilayerPerceptron").unwrap();
        let config = mlp.default_config(); // epochs = 150
        let third = capped_config(mlp.as_ref(), &config, &Fidelity::fraction(1, 3));
        assert_eq!(third.int_or("epochs", 0), 50);
        let capped = capped_config(
            mlp.as_ref(),
            &config,
            &Fidelity::fraction(1, 3).with_epoch_cap(20),
        );
        assert_eq!(capped.int_or("epochs", 0), 20);
        // Full fidelity, no cap: untouched.
        let full = capped_config(mlp.as_ref(), &config, &Fidelity::full());
        assert_eq!(full, config);
        // A spec without an iteration knob passes through verbatim.
        let ibk = registry.require("IBk").unwrap();
        let c = ibk.default_config();
        assert_eq!(
            capped_config(ibk.as_ref(), &c, &Fidelity::fraction(1, 9)),
            c
        );
    }

    #[test]
    fn subset_memo_is_stable_and_keeps_full_data_untouched() {
        let data = SynthSpec::new("m", 90, 3, 0, 2, SynthFamily::Hyperplane, 8).generate();
        let memo = SubsetMemo::new();
        assert!(memo.at(&data, &Fidelity::full(), 7).unwrap().is_none());
        let third = memo
            .at(&data, &Fidelity::fraction(1, 3), 7)
            .unwrap()
            .unwrap();
        assert!((30..90).contains(&third.n_rows()), "n = {}", third.n_rows());
        // Memoized: the same fraction returns the identical subset.
        let again = memo
            .at(&data, &Fidelity::fraction(1, 3), 7)
            .unwrap()
            .unwrap();
        assert!(Arc::ptr_eq(&third, &again));
    }

    #[test]
    fn fidelity_cv_objective_scores_cheap_rungs() {
        let registry = Registry::fast();
        let spec = registry.require("IBk").unwrap().clone();
        let data = SynthSpec::new("f", 120, 3, 0, 2, SynthFamily::Hyperplane, 5).generate();
        let obj = FidelityCvObjective::new(&spec, &data, 3, 0);
        let config = spec.default_config();
        let low = BatchFidelityObjective::evaluate_at(&obj, &config, &Fidelity::fraction(1, 9));
        let full = BatchFidelityObjective::evaluate_at(&obj, &config, &Fidelity::full());
        assert!(low.score().is_some(), "low-fidelity eval failed: {low:?}");
        assert!(full.score().is_some(), "full eval failed: {full:?}");
    }
}
