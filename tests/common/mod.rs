//! Shared harness for the integration suites (`tests/determinism.rs`,
//! `tests/fault_injection.rs`, `tests/trace_oracle.rs`,
//! `tests/multifidelity_oracle.rs`): one search space, one fitness
//! function (plus a rendezvous that proves multi-worker runs), one canonical
//! byte serialization and one set of containment assertions, so the
//! suites cannot drift apart on what "the same run" means.
//!
//! Each integration-test binary compiles this module independently and uses
//! a different subset of it.
#![allow(dead_code)]

use auto_model::hpo::{BatchGate, Config, Domain, FaultPlan, OptOutcome, SearchSpace, TrialPolicy};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::{Duration, Instant};

/// The space every cross-suite determinism/fault run searches.
pub fn space() -> SearchSpace {
    SearchSpace::builder()
        .add("lr", Domain::float(1e-4, 1.0))
        .add("depth", Domain::int(1, 16))
        .add("kernel", Domain::cat(&["rbf", "poly", "linear"]))
        .build()
        .expect("space builds")
}

/// Deterministic, instant fitness over [`space`].
pub fn fitness(c: &Config) -> f64 {
    c.float_or("lr", 0.0) + c.int_or("depth", 0) as f64 / 16.0
}

/// A meeting point that makes a multi-worker run provably multi-worker.
/// Once armed, the first thread to [`arrive`](Rendezvous::arrive) waits
/// until a different thread arrives too, so the executor's calling thread
/// cannot drain the batch alone and a "same bytes at 1 and N threads" run
/// cannot quietly compare a serial run with itself. After the meeting
/// every arrival returns at once. If no second thread comes within 10 s
/// the wait gives up, so a broken executor fails the run's
/// `peak_workers() > 1` check instead of hanging it. It changes no score.
#[derive(Debug, Default)]
pub struct Rendezvous {
    armed: AtomicBool,
    done: AtomicBool,
    first: Mutex<Option<ThreadId>>,
}

impl Rendezvous {
    /// Armed from the start when `width > 1`; never waits otherwise.
    pub fn for_width(width: usize) -> Rendezvous {
        let meet = Rendezvous::default();
        if width > 1 {
            meet.arm();
        }
        meet
    }

    /// From now on, the first arrival waits for a second thread.
    pub fn arm(&self) {
        self.armed.store(true, Ordering::SeqCst);
    }

    /// Call at the start of every evaluation.
    pub fn arrive(&self) {
        if !self.armed.load(Ordering::SeqCst) || self.done.load(Ordering::SeqCst) {
            return;
        }
        let me = std::thread::current().id();
        {
            let mut first = self.first.lock().expect("rendezvous lock");
            match *first {
                None => *first = Some(me),
                Some(id) if id != me => {
                    self.done.store(true, Ordering::SeqCst);
                    return;
                }
                Some(_) => {}
            }
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while !self.done.load(Ordering::SeqCst) && Instant::now() < deadline {
            std::thread::sleep(Duration::from_micros(50));
        }
        self.done.store(true, Ordering::SeqCst);
    }
}

/// As a run's gate, a rendezvous arms at the first trial batch, so an
/// evaluation the run makes before it (UDR's cost probe) never waits.
impl BatchGate for Rendezvous {
    fn before_batch(&self) {
        self.arm();
    }
}

/// Canonical bytes for a run: every trial's index, serialized config,
/// exact score bits, and failure (if any). Any nondeterminism — including
/// in *which* trials fail and how — changes these bytes.
pub fn trial_bytes(out: &OptOutcome) -> String {
    out.trials
        .iter()
        .map(|t| {
            format!(
                "{}|{}#{:016x}{}\n",
                t.index,
                serde_json::to_string(&t.config).expect("config serializes"),
                t.score.to_bits(),
                t.failure
                    .as_ref()
                    .map(|f| format!("!{f}"))
                    .unwrap_or_default(),
            )
        })
        .collect()
}

/// Injected panics run the panic hook before `contain` catches them, and
/// executor workers print outside libtest's capture. Silence exactly the
/// injected ones; real panics still report.
pub fn quiet_injected_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let payload = info.payload();
            let message = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_default();
            // Match only the injected payload itself — a `contains` check
            // would also swallow assertion failures whose printed trial
            // bytes embed an "injected fault" failure string.
            if !message.starts_with("injected fault") {
                previous(info);
            }
        }));
    });
}

/// ~10% of trial indices panic and ~10% score NaN, with no retry to
/// absorb them — the worst case the acceptance criterion names.
pub fn hostile_policy() -> TrialPolicy {
    TrialPolicy::default()
        .with_max_attempts(1)
        .with_faults(FaultPlan::with_rates(5, 0.1, 0.1, 0.0))
}

/// The acceptance checks shared by all three optimizers: a valid finite
/// incumbent backed by a usable trial, and a quarantine log naming the
/// configs that exhausted their retries.
pub fn assert_contained(out: &OptOutcome, label: &str) {
    assert!(
        out.best_score.is_finite(),
        "{label}: incumbent score must be finite"
    );
    assert!(
        out.best_score > TrialPolicy::default().penalty,
        "{label}: incumbent must beat the failure penalty"
    );
    assert!(
        out.trials.iter().any(|t| t.is_usable()),
        "{label}: at least one usable trial must back the incumbent"
    );
    assert!(
        !out.quarantine.is_empty(),
        "{label}: ~10% fault rates with no retries must quarantine configs"
    );
    for record in &out.quarantine {
        assert!(
            !record.key.is_empty(),
            "{label}: quarantine records name the config"
        );
        let failure = record.failure.to_string();
        assert!(
            failure.contains("injected fault") || failure.contains("non-finite"),
            "{label}: unexpected quarantined failure: {failure}"
        );
    }
}

/// Path of a checked-in golden file under `tests/golden/`.
pub fn golden_path(name: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// Is this run regenerating golden files (`AUTOMODEL_REGOLDEN=1`)?
pub fn regolden() -> bool {
    std::env::var("AUTOMODEL_REGOLDEN").is_ok_and(|v| !v.is_empty() && v != "0")
}

/// Compare `actual` against the checked-in golden file — or rewrite it when
/// [`regolden`] is set. A regenerating test must end with
/// `assert!(!regolden(), ..)` so a regeneration run is never mistaken for a
/// passing one.
pub fn assert_matches_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if regolden() {
        std::fs::write(&path, actual).expect("golden file is writable");
        eprintln!("regenerated {}", path.display());
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); regenerate with AUTOMODEL_REGOLDEN=1",
            path.display()
        )
    });
    assert_eq!(
        expected, actual,
        "{name}: run diverged from the checked-in golden history"
    );
}
