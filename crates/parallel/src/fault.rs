//! Trial-level fault containment and deterministic fault injection.
//!
//! CASH-scale search runs hundreds of trial evaluations, and any one of
//! them can panic (a degenerate fold), diverge (a NaN loss), or stall. The
//! searches must survive all of that — Auto-WEKA and Auto-sklearn both
//! quarantine failing configurations rather than abort — *without* giving
//! up the byte-identical determinism contract of [`crate::Executor`].
//!
//! This module is the single containment point:
//!
//! * [`TrialOutcome`] — the closed taxonomy of how one trial can end.
//! * [`contain`] — the trial side of the workspace's only `catch_unwind`
//!   (the `no-adhoc-catch-unwind` lint, L7, bans it everywhere outside
//!   `crates/parallel`); converts a panicking evaluation into
//!   [`TrialOutcome::Panicked`] with the payload preserved. The executor
//!   uses the same `catch_unwind` to run its calling thread as worker 0.
//! * [`TrialPolicy`] / [`run_trial`] — bounded deterministic retries. Each
//!   attempt draws its RNG stream from
//!   [`seed_stream`]`(base, index, attempt)`, so attempt 0 replays the
//!   fault-free stream exactly and retries decorrelate without consulting
//!   ambient state.
//! * [`FaultPlan`] — seeded fault *injection* for tests and drills: panics,
//!   NaN scores, timeouts and delays fired at chosen trial indices (or at a
//!   deterministic per-index rate). Faults are a pure function of
//!   `(plan seed, trial index)` and fire only on attempt 0, which is what
//!   lets tests prove both that containment works and that the retry path
//!   actually recovers.
//!
//! Because an injected fault depends only on the trial index, a plan
//! perturbs every thread count identically: results under faults stay
//! byte-identical at 1, 2 or 8 workers.

use crate::seed::seed_stream;
use automodel_trace::EnvError;
use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

/// How a single trial evaluation ended.
#[derive(Debug, Clone, PartialEq)]
pub enum TrialOutcome {
    /// The evaluation completed with a finite score.
    Ok(f64),
    /// The evaluation panicked; the payload message is preserved.
    Panicked(String),
    /// The evaluation detected divergence (e.g. a non-finite training loss)
    /// and aborted itself.
    Diverged(String),
    /// The evaluation returned a non-finite score (NaN or ±∞).
    NonFinite,
    /// The evaluation exceeded its time allowance.
    TimedOut,
}

impl TrialOutcome {
    /// Classify a raw objective value: finite scores are [`Ok`], anything
    /// else is [`NonFinite`].
    ///
    /// [`Ok`]: TrialOutcome::Ok
    /// [`NonFinite`]: TrialOutcome::NonFinite
    pub fn from_score(score: f64) -> TrialOutcome {
        if score.is_finite() {
            TrialOutcome::Ok(score)
        } else {
            TrialOutcome::NonFinite
        }
    }

    /// The score, when the trial succeeded.
    pub fn score(&self) -> Option<f64> {
        match self {
            TrialOutcome::Ok(s) => Some(*s),
            _ => None,
        }
    }

    pub fn is_ok(&self) -> bool {
        matches!(self, TrialOutcome::Ok(_))
    }

    /// The failure record, when the trial failed.
    pub fn failure(&self) -> Option<TrialFailure> {
        let (kind, message) = match self {
            TrialOutcome::Ok(_) => return None,
            TrialOutcome::Panicked(m) => (FailureKind::Panicked, m.clone()),
            TrialOutcome::Diverged(m) => (FailureKind::Diverged, m.clone()),
            TrialOutcome::NonFinite => (FailureKind::NonFinite, "non-finite score".to_string()),
            TrialOutcome::TimedOut => (FailureKind::TimedOut, "trial timed out".to_string()),
        };
        Some(TrialFailure { kind, message })
    }
}

/// The failure arm of the [`TrialOutcome`] taxonomy, as a plain error.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FailureKind {
    Panicked,
    Diverged,
    NonFinite,
    TimedOut,
}

impl std::fmt::Display for FailureKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            FailureKind::Panicked => "panicked",
            FailureKind::Diverged => "diverged",
            FailureKind::NonFinite => "non-finite",
            FailureKind::TimedOut => "timed out",
        };
        f.write_str(s)
    }
}

/// A failed trial: the failure class plus its human-readable detail.
/// Implements [`std::error::Error`] so callers can wrap it into their own
/// error enums (`CoreError` carries one per aborted search).
#[derive(Debug, Clone, PartialEq)]
pub struct TrialFailure {
    pub kind: FailureKind,
    pub message: String,
}

impl std::fmt::Display for TrialFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "trial {}: {}", self.kind, self.message)
    }
}

impl std::error::Error for TrialFailure {}

/// Run `f`, converting a panic into [`TrialOutcome::Panicked`].
///
/// With the executor's [`catch_payload`], this module holds the
/// workspace's only `catch_unwind` (lint L7). The `AssertUnwindSafe` is
/// justified because every caller hands in a closure whose captured state
/// is either owned or discarded on failure: a failed trial's partial state
/// is never observed again.
pub fn contain<F: FnOnce() -> TrialOutcome>(f: F) -> TrialOutcome {
    match catch_payload(f) {
        Ok(outcome) => outcome,
        Err(payload) => {
            let message = if let Some(s) = payload.downcast_ref::<String>() {
                s.clone()
            } else if let Some(s) = payload.downcast_ref::<&str>() {
                (*s).to_string()
            } else {
                "<non-string panic payload>".to_string()
            };
            TrialOutcome::Panicked(message)
        }
    }
}

/// Run `f`, handing back a panic's original payload instead of
/// classifying it: the executor's calling thread runs its share of a
/// batch through this and re-raises the payload once the other workers
/// have joined. Same `AssertUnwindSafe` argument as [`contain`]: a
/// panicking batch is abandoned, its partial results never observed.
pub(crate) fn catch_payload<R>(f: impl FnOnce() -> R) -> std::thread::Result<R> {
    catch_unwind(AssertUnwindSafe(f))
}

/// Salt separating the fault draws so one trial index (or IO operation
/// index) can carry each fault class independently.
const PANIC_SALT: u64 = 0x70_61_6E_69; // "pani"
const NAN_SALT: u64 = 0x6E_61_6E_00; // "nan"
const DELAY_SALT: u64 = 0x64_6C_61_79; // "dlay"
const TORN_SALT: u64 = 0x74_6F_72_6E; // "torn"
const SHORT_SALT: u64 = 0x73_68_72_74; // "shrt"
const ENOSPC_SALT: u64 = 0x6E_6F_73_70; // "nosp"

/// A seeded plan of faults to inject into trial evaluations.
///
/// Faults are a pure function of `(seed, trial index)`: rate-based faults
/// draw a uniform fraction from [`seed_stream`] and fire when it falls
/// below the rate; explicit `*_at` sets fire at exactly those indices.
/// All faults fire on attempt 0 only, so the bounded retry in
/// [`run_trial`] recovers from every injected fault — injection exercises
/// the containment machinery without changing converged results.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    pub seed: u64,
    /// Probability that a trial's first attempt panics.
    pub panic_rate: f64,
    /// Probability that a trial's first attempt scores NaN.
    pub nan_rate: f64,
    /// Probability that a trial's first attempt sleeps briefly first
    /// (perturbs scheduling; must not perturb results).
    pub delay_rate: f64,
    /// Probability that a store write is torn (a partial prefix lands,
    /// then the write errors). Consumed by the store's fault-injecting
    /// VFS, keyed by IO-operation index, not trial index.
    pub torn_rate: f64,
    /// Probability that a store read returns truncated bytes.
    pub short_read_rate: f64,
    /// Probability that a store write fails up front as if the device
    /// were full.
    pub enospc_rate: f64,
    /// Trial indices whose first attempt panics.
    pub panic_at: BTreeSet<u64>,
    /// Trial indices whose first attempt scores NaN.
    pub nan_at: BTreeSet<u64>,
    /// Trial indices whose first attempt sleeps briefly.
    pub delay_at: BTreeSet<u64>,
    /// Trial indices whose first attempt reports [`TrialOutcome::TimedOut`]
    /// (simulating a deadline detector, which keeps outcomes deterministic).
    pub timeout_at: BTreeSet<u64>,
}

impl FaultPlan {
    /// A plan that injects nothing (the production default).
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// A rate-based plan: each trial index independently panics / NaNs /
    /// delays with the given probabilities, decided by `seed`.
    pub fn with_rates(seed: u64, panic_rate: f64, nan_rate: f64, delay_rate: f64) -> FaultPlan {
        FaultPlan {
            seed,
            panic_rate,
            nan_rate,
            delay_rate,
            ..FaultPlan::default()
        }
    }

    /// Does this plan inject nothing at all?
    pub fn is_empty(&self) -> bool {
        self.panic_rate <= 0.0
            && self.nan_rate <= 0.0
            && self.delay_rate <= 0.0
            && !self.has_io_faults()
            && self.panic_at.is_empty()
            && self.nan_at.is_empty()
            && self.delay_at.is_empty()
            && self.timeout_at.is_empty()
    }

    /// Does this plan inject any store IO faults? (Decides whether the
    /// store wraps its VFS in the fault-injecting layer.)
    pub fn has_io_faults(&self) -> bool {
        self.torn_rate > 0.0 || self.short_read_rate > 0.0 || self.enospc_rate > 0.0
    }

    /// Uniform fraction in `[0, 1)` for `(seed ⊕ salt, index)`.
    fn draw(&self, salt: u64, index: u64) -> f64 {
        // 53 high bits → an exactly representable uniform double.
        (seed_stream(self.seed ^ salt, index, 0) >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn injects_panic(&self, index: u64) -> bool {
        self.panic_at.contains(&index)
            || (self.panic_rate > 0.0 && self.draw(PANIC_SALT, index) < self.panic_rate)
    }

    pub fn injects_nan(&self, index: u64) -> bool {
        self.nan_at.contains(&index)
            || (self.nan_rate > 0.0 && self.draw(NAN_SALT, index) < self.nan_rate)
    }

    pub fn injects_delay(&self, index: u64) -> bool {
        self.delay_at.contains(&index)
            || (self.delay_rate > 0.0 && self.draw(DELAY_SALT, index) < self.delay_rate)
    }

    pub fn injects_timeout(&self, index: u64) -> bool {
        self.timeout_at.contains(&index)
    }

    /// Should store IO operation `op` tear its write? (`op` counts VFS
    /// operations, not trials.)
    pub fn injects_torn_write(&self, op: u64) -> bool {
        self.torn_rate > 0.0 && self.draw(TORN_SALT, op) < self.torn_rate
    }

    /// Should store IO operation `op` return a short read?
    pub fn injects_short_read(&self, op: u64) -> bool {
        self.short_read_rate > 0.0 && self.draw(SHORT_SALT, op) < self.short_read_rate
    }

    /// Should store IO operation `op` fail as if the device were full?
    pub fn injects_enospc(&self, op: u64) -> bool {
        self.enospc_rate > 0.0 && self.draw(ENOSPC_SALT, op) < self.enospc_rate
    }

    /// Parse the `AUTOMODEL_FAULTS` environment variable:
    /// `seed=3,panic=0.1,nan=0.1,delay=0.05`. Unknown keys and malformed
    /// values are an [`EnvError`] — a mistyped drill spec must stop the
    /// run, not silently drill nothing; an unset or empty variable yields
    /// an empty plan.
    pub fn from_env() -> Result<FaultPlan, EnvError> {
        match std::env::var(crate::env::FAULTS_ENV) {
            Ok(spec) => FaultPlan::parse(&spec),
            Err(_) => Ok(FaultPlan::none()),
        }
    }

    /// Parse a `key=value` comma list (the `AUTOMODEL_FAULTS` format).
    /// Keys are `seed` (u64) and the rates in `[0, 1]`:
    /// `panic`/`nan`/`delay` for trial faults, `torn`/`short_read`/
    /// `enospc` for store IO faults; anything else — an unknown key, a
    /// bare word, a missing or unparsable value — is an [`EnvError`]
    /// quoting the whole spec.
    pub fn parse(spec: &str) -> Result<FaultPlan, EnvError> {
        let bad = |expected: &'static str| EnvError::new(crate::env::FAULTS_ENV, spec, expected);
        let mut plan = FaultPlan::none();
        for part in spec.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let Some((key, value)) = part.split_once('=') else {
                return Err(bad("comma-separated key=value pairs"));
            };
            let value = value.trim();
            let rate = |field: &'static str| {
                value
                    .parse::<f64>()
                    .ok()
                    .filter(|r| (0.0..=1.0).contains(r))
                    .ok_or_else(|| bad(field))
            };
            match key.trim() {
                "seed" => {
                    plan.seed = value.parse().map_err(|_| bad("seed=<u64>"))?;
                }
                "panic" => plan.panic_rate = rate("panic=<rate in [0,1]>")?,
                "nan" => plan.nan_rate = rate("nan=<rate in [0,1]>")?,
                "delay" => plan.delay_rate = rate("delay=<rate in [0,1]>")?,
                "torn" => plan.torn_rate = rate("torn=<rate in [0,1]>")?,
                "short_read" => plan.short_read_rate = rate("short_read=<rate in [0,1]>")?,
                "enospc" => plan.enospc_rate = rate("enospc=<rate in [0,1]>")?,
                _ => {
                    return Err(bad(
                        "keys seed, panic, nan, delay, torn, short_read, enospc",
                    ))
                }
            }
        }
        Ok(plan)
    }
}

/// How trial failures are retried, penalized, and (by the HPO layer)
/// quarantined.
#[derive(Debug, Clone, PartialEq)]
pub struct TrialPolicy {
    /// Total attempts per trial (first try + retries); at least 1.
    pub max_attempts: usize,
    /// Finite stand-in score recorded for a trial whose every attempt
    /// failed. Must be finite — optimizers assume all recorded scores are.
    pub penalty: f64,
    /// Faults to inject (empty in production).
    pub faults: FaultPlan,
}

impl Default for TrialPolicy {
    fn default() -> TrialPolicy {
        TrialPolicy {
            max_attempts: 2,
            penalty: -1.0e9,
            faults: FaultPlan::none(),
        }
    }
}

impl TrialPolicy {
    /// The default policy carrying the [`FaultPlan`] from the
    /// `AUTOMODEL_FAULTS` environment variable (empty when unset,
    /// [`EnvError`] when malformed).
    pub fn from_env() -> Result<TrialPolicy, EnvError> {
        Ok(TrialPolicy {
            faults: FaultPlan::from_env()?,
            ..TrialPolicy::default()
        })
    }

    /// Like [`TrialPolicy::from_env`], but fail-closed: a malformed
    /// `AUTOMODEL_FAULTS` spec yields the default policy (no injected
    /// faults) instead of an error. For construction sites that cannot
    /// return `Result`; strictness is still enforced at run entry points
    /// via [`crate::env::validate_env`], which surfaces the same parse
    /// failure before any of these fallbacks can fire.
    pub fn from_env_or_default() -> TrialPolicy {
        TrialPolicy::from_env().unwrap_or_default()
    }

    pub fn with_faults(mut self, faults: FaultPlan) -> TrialPolicy {
        self.faults = faults;
        self
    }

    pub fn with_max_attempts(mut self, n: usize) -> TrialPolicy {
        self.max_attempts = n.max(1);
        self
    }
}

/// The result of [`run_trial`]: the final outcome, how many attempts were
/// spent reaching it, and the failure of every attempt that did not
/// succeed, in attempt order — the raw material for the trace layer's
/// `fault`/`retry` events. `failures.len() == attempts - 1` when the trial
/// eventually succeeded, `== attempts` when it never did.
#[derive(Debug, Clone, PartialEq)]
pub struct TrialReport {
    pub outcome: TrialOutcome,
    pub attempts: usize,
    pub failures: Vec<TrialFailure>,
}

/// Execute one trial under `policy`: inject any planned faults (attempt 0
/// only), contain panics, and retry failures up to
/// `policy.max_attempts` times. `eval` receives
/// `(seed_stream(base_seed, index, attempt), attempt)` so a stochastic
/// evaluation can decorrelate its retries; deterministic objectives may
/// ignore both.
///
/// The report is a pure function of `(policy, base_seed, index, eval)` —
/// nothing here consults the clock, the thread, or ambient entropy — which
/// is what keeps fault-injected parallel runs byte-identical to serial
/// ones.
pub fn run_trial<F>(policy: &TrialPolicy, base_seed: u64, index: u64, mut eval: F) -> TrialReport
where
    F: FnMut(u64, usize) -> TrialOutcome,
{
    let attempts = policy.max_attempts.max(1);
    let mut last = TrialOutcome::NonFinite;
    let mut failures = Vec::new();
    for attempt in 0..attempts {
        let seed = seed_stream(base_seed, index, attempt as u64);
        let eval = &mut eval;
        let outcome = contain(move || {
            if attempt == 0 {
                if policy.faults.injects_delay(index) {
                    std::thread::sleep(Duration::from_millis(2));
                }
                if policy.faults.injects_timeout(index) {
                    return TrialOutcome::TimedOut;
                }
                if policy.faults.injects_panic(index) {
                    // lint:allow(no-panic-lib): deterministic fault injection; contained one line up
                    panic!("injected fault at trial {index}");
                }
                if policy.faults.injects_nan(index) {
                    return TrialOutcome::from_score(f64::NAN);
                }
            }
            eval(seed, attempt)
        });
        if outcome.is_ok() {
            return TrialReport {
                outcome,
                attempts: attempt + 1,
                failures,
            };
        }
        if let Some(failure) = outcome.failure() {
            failures.push(failure);
        }
        last = outcome;
    }
    TrialReport {
        outcome: last,
        attempts,
        failures,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_score_classifies_finiteness() {
        assert_eq!(TrialOutcome::from_score(0.5), TrialOutcome::Ok(0.5));
        assert_eq!(TrialOutcome::from_score(f64::NAN), TrialOutcome::NonFinite);
        assert_eq!(
            TrialOutcome::from_score(f64::INFINITY),
            TrialOutcome::NonFinite
        );
        assert_eq!(
            TrialOutcome::from_score(f64::NEG_INFINITY),
            TrialOutcome::NonFinite
        );
    }

    #[test]
    fn contain_catches_panics_with_payload() {
        let out = contain(|| panic!("boom {}", 7));
        assert_eq!(out, TrialOutcome::Panicked("boom 7".to_string()));
        let out = contain(|| std::panic::panic_any(42u32));
        assert_eq!(
            out,
            TrialOutcome::Panicked("<non-string panic payload>".to_string())
        );
    }

    #[test]
    fn failure_maps_every_arm() {
        assert!(TrialOutcome::Ok(1.0).failure().is_none());
        let f = TrialOutcome::Panicked("p".into()).failure().unwrap();
        assert_eq!(f.kind, FailureKind::Panicked);
        assert_eq!(format!("{f}"), "trial panicked: p");
        let f = TrialOutcome::Diverged("nan loss".into()).failure().unwrap();
        assert_eq!(f.kind, FailureKind::Diverged);
        let f = TrialOutcome::NonFinite.failure().unwrap();
        assert_eq!(f.kind, FailureKind::NonFinite);
        let f = TrialOutcome::TimedOut.failure().unwrap();
        assert_eq!(f.kind, FailureKind::TimedOut);
        assert_eq!(format!("{f}"), "trial timed out: trial timed out");
    }

    #[test]
    fn fault_plan_is_deterministic_and_index_local() {
        let plan = FaultPlan::with_rates(3, 0.1, 0.1, 0.05);
        let fired: Vec<(bool, bool, bool)> = (0..200)
            .map(|i| {
                (
                    plan.injects_panic(i),
                    plan.injects_nan(i),
                    plan.injects_delay(i),
                )
            })
            .collect();
        let again: Vec<(bool, bool, bool)> = (0..200)
            .map(|i| {
                (
                    plan.injects_panic(i),
                    plan.injects_nan(i),
                    plan.injects_delay(i),
                )
            })
            .collect();
        assert_eq!(fired, again);
        let panics = fired.iter().filter(|f| f.0).count();
        assert!(panics > 5 && panics < 50, "panic rate off: {panics}/200");
    }

    #[test]
    fn empty_plan_fires_nothing() {
        let plan = FaultPlan::none();
        assert!(plan.is_empty());
        for i in 0..100 {
            assert!(!plan.injects_panic(i) && !plan.injects_nan(i) && !plan.injects_delay(i));
        }
    }

    #[test]
    fn parse_reads_the_env_format() {
        let plan = FaultPlan::parse("seed=3, panic=0.1, nan=0.2, delay=0.05").unwrap();
        assert_eq!(plan.seed, 3);
        assert_eq!(plan.panic_rate, 0.1);
        assert_eq!(plan.nan_rate, 0.2);
        assert_eq!(plan.delay_rate, 0.05);
        assert!(FaultPlan::parse("").unwrap().is_empty());
        assert!(FaultPlan::parse(" , ,").unwrap().is_empty());
    }

    #[test]
    fn parse_reads_io_fault_keys() {
        let plan = FaultPlan::parse("seed=5,torn=0.3,short_read=0.2,enospc=0.1").unwrap();
        assert_eq!(plan.seed, 5);
        assert_eq!(plan.torn_rate, 0.3);
        assert_eq!(plan.short_read_rate, 0.2);
        assert_eq!(plan.enospc_rate, 0.1);
        assert!(plan.has_io_faults());
        assert!(!plan.is_empty());
        assert!(!FaultPlan::parse("seed=5,panic=0.1")
            .unwrap()
            .has_io_faults());
    }

    #[test]
    fn io_faults_are_deterministic_per_operation_index() {
        let plan = FaultPlan::parse("seed=5,torn=0.3,short_read=0.3,enospc=0.2").unwrap();
        let fired: Vec<(bool, bool, bool)> = (0..200)
            .map(|op| {
                (
                    plan.injects_torn_write(op),
                    plan.injects_short_read(op),
                    plan.injects_enospc(op),
                )
            })
            .collect();
        let again: Vec<(bool, bool, bool)> = (0..200)
            .map(|op| {
                (
                    plan.injects_torn_write(op),
                    plan.injects_short_read(op),
                    plan.injects_enospc(op),
                )
            })
            .collect();
        assert_eq!(fired, again);
        let torn = fired.iter().filter(|f| f.0).count();
        assert!(torn > 20 && torn < 120, "torn rate off: {torn}/200");
        // Trial faults and IO faults draw from salted, independent streams.
        let trial_plan = FaultPlan::with_rates(5, 0.3, 0.0, 0.0);
        let panics: Vec<bool> = (0..200).map(|i| trial_plan.injects_panic(i)).collect();
        let torn_bools: Vec<bool> = fired.iter().map(|f| f.0).collect();
        assert_ne!(panics, torn_bools, "salts failed to separate the streams");
    }

    #[test]
    fn parse_rejects_malformed_specs_by_name() {
        for bad in [
            "seed=x",            // unparsable seed
            "bogus",             // bare word, no '='
            "panic=",            // missing value
            "=1",                // missing key
            "typo=0.5",          // unknown key
            "panic=2.0",         // rate out of range
            "nan=-0.1",          // negative rate
            "seed=3,panic=0.1x", // one bad piece poisons the spec
        ] {
            let err =
                FaultPlan::parse(bad).expect_err("malformed AUTOMODEL_FAULTS must be rejected");
            assert_eq!(err.var, "AUTOMODEL_FAULTS");
            assert_eq!(err.value, bad);
            let msg = err.to_string();
            assert!(msg.contains("AUTOMODEL_FAULTS"), "{msg}");
            assert!(msg.contains(bad), "{msg}");
        }
    }

    #[test]
    fn run_trial_retries_injected_faults_to_success() {
        let faults = FaultPlan {
            panic_at: [4u64].into_iter().collect(),
            nan_at: [5u64].into_iter().collect(),
            timeout_at: [6u64].into_iter().collect(),
            ..FaultPlan::none()
        };
        let policy = TrialPolicy::default().with_faults(faults);
        for index in 3..=6u64 {
            let report = run_trial(&policy, 9, index, |_seed, _attempt| {
                TrialOutcome::from_score(index as f64)
            });
            assert_eq!(
                report.outcome,
                TrialOutcome::Ok(index as f64),
                "index {index}"
            );
            // Faulted indices needed the retry; clean ones did not.
            assert_eq!(report.attempts, if index == 3 { 1 } else { 2 });
            assert_eq!(report.failures.len(), report.attempts - 1);
        }
        let policy = TrialPolicy::default().with_faults(FaultPlan {
            panic_at: [4u64].into_iter().collect(),
            ..FaultPlan::none()
        });
        let report = run_trial(&policy, 9, 4, |_s, _a| TrialOutcome::from_score(1.0));
        assert_eq!(report.failures[0].kind, FailureKind::Panicked);
    }

    #[test]
    fn run_trial_exhausts_attempts_on_persistent_failure() {
        let policy = TrialPolicy::default().with_max_attempts(3);
        let mut calls = 0;
        let report = run_trial(&policy, 0, 0, |_seed, _attempt| {
            calls += 1;
            panic!("always fails");
        });
        assert_eq!(calls, 3);
        assert_eq!(report.attempts, 3);
        assert_eq!(
            report.outcome,
            TrialOutcome::Panicked("always fails".into())
        );
        // Every exhausted attempt left a failure record, in order.
        assert_eq!(report.failures.len(), 3);
        assert!(report
            .failures
            .iter()
            .all(|f| f.kind == FailureKind::Panicked));
    }

    #[test]
    fn run_trial_passes_attempt_decorrelated_seeds() {
        let policy = TrialPolicy::default().with_max_attempts(2);
        let mut seeds = Vec::new();
        run_trial(&policy, 77, 5, |seed, attempt| {
            seeds.push((seed, attempt));
            TrialOutcome::NonFinite
        });
        assert_eq!(seeds.len(), 2);
        assert_eq!(seeds[0], (seed_stream(77, 5, 0), 0));
        assert_eq!(seeds[1], (seed_stream(77, 5, 1), 1));
        assert_ne!(seeds[0].0, seeds[1].0);
    }
}
