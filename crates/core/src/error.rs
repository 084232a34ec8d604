//! Error type for the Auto-Model pipeline.

use automodel_hpo::{TrialFailure, TrialOutcome};
use automodel_trace::EnvError;
use std::fmt;

/// Errors raised by DMD, UDR or the baseline.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// The knowledge corpus produced no usable CRelations.
    NoKnowledge,
    /// A knowledge pair references an instance with no dataset attached.
    MissingDataset(String),
    /// A knowledge pair references an algorithm missing from the registry.
    UnknownAlgorithm(String),
    /// No registered algorithm can process the given dataset.
    NothingApplicable(String),
    /// The optimizer returned no trials (zero budget).
    EmptySearch,
    /// Every trial of a search failed; carries the failure of the failed
    /// config that sorts first, whatever order the workers failed in.
    Trial(TrialFailure),
    /// Wrapped classification-substrate error.
    Ml(automodel_ml::MlError),
    /// A malformed `AUTOMODEL_*` environment variable.
    Env(EnvError),
}

impl CoreError {
    /// Lift a failed [`TrialOutcome`] into a [`CoreError::Trial`];
    /// `None` for [`TrialOutcome::Ok`].
    pub fn from_outcome(outcome: &TrialOutcome) -> Option<CoreError> {
        outcome.failure().map(CoreError::Trial)
    }
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::NoKnowledge => write!(f, "knowledge acquisition produced no CRelations"),
            CoreError::MissingDataset(i) => write!(f, "no dataset registered for instance '{i}'"),
            CoreError::UnknownAlgorithm(a) => {
                write!(f, "knowledge references unregistered algorithm '{a}'")
            }
            CoreError::NothingApplicable(d) => {
                write!(f, "no registered algorithm can process dataset '{d}'")
            }
            CoreError::EmptySearch => write!(f, "optimizer returned no trials (budget too small?)"),
            CoreError::Trial(e) => write!(f, "every trial failed; first by config: {e}"),
            CoreError::Ml(e) => write!(f, "classification substrate: {e}"),
            CoreError::Env(e) => write!(f, "environment: {e}"),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Ml(e) => Some(e),
            CoreError::Trial(e) => Some(e),
            CoreError::Env(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TrialFailure> for CoreError {
    fn from(e: TrialFailure) -> Self {
        CoreError::Trial(e)
    }
}

impl From<automodel_ml::MlError> for CoreError {
    fn from(e: automodel_ml::MlError) -> Self {
        CoreError::Ml(e)
    }
}

impl From<automodel_data::DataError> for CoreError {
    fn from(e: automodel_data::DataError) -> Self {
        CoreError::Ml(automodel_ml::MlError::Data(e))
    }
}

impl From<EnvError> for CoreError {
    fn from(e: EnvError) -> Self {
        CoreError::Env(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use automodel_hpo::FailureKind;
    use std::error::Error;

    fn trial_failure() -> TrialFailure {
        TrialFailure {
            kind: FailureKind::Panicked,
            message: "boom".into(),
        }
    }

    #[test]
    fn display_covers_every_variant() {
        let cases: Vec<(CoreError, &str)> = vec![
            (CoreError::NoKnowledge, "no CRelations"),
            (CoreError::MissingDataset("iris".into()), "'iris'"),
            (CoreError::UnknownAlgorithm("J99".into()), "'J99'"),
            (CoreError::NothingApplicable("blobs".into()), "'blobs'"),
            (CoreError::EmptySearch, "no trials"),
            (CoreError::Trial(trial_failure()), "trial panicked: boom"),
            (
                CoreError::Ml(automodel_ml::MlError::EmptyTrainingSet),
                "empty training set",
            ),
            (
                CoreError::Env(EnvError::new("AUTOMODEL_CACHE", "65k", "a capacity")),
                "AUTOMODEL_CACHE",
            ),
        ];
        for (err, needle) in cases {
            let text = err.to_string();
            assert!(text.contains(needle), "{text:?} missing {needle:?}");
        }
    }

    #[test]
    fn source_is_exposed_for_wrapped_errors_only() {
        assert!(CoreError::NoKnowledge.source().is_none());
        assert!(CoreError::MissingDataset("x".into()).source().is_none());
        assert!(CoreError::UnknownAlgorithm("x".into()).source().is_none());
        assert!(CoreError::NothingApplicable("x".into()).source().is_none());
        assert!(CoreError::EmptySearch.source().is_none());
        let trial = CoreError::Trial(trial_failure());
        assert_eq!(trial.source().unwrap().to_string(), "trial panicked: boom");
        let ml = CoreError::Ml(automodel_ml::MlError::NotFitted);
        assert_eq!(
            ml.source().unwrap().to_string(),
            "classifier used before fit"
        );
        let env = CoreError::Env(EnvError::new("AUTOMODEL_THREADS", "two", "a count"));
        assert!(env.source().unwrap().to_string().contains("two"));
    }

    #[test]
    fn failed_outcomes_convert_and_ok_scores_do_not() {
        assert!(CoreError::from_outcome(&TrialOutcome::Ok(0.5)).is_none());
        let cases = [
            (TrialOutcome::Panicked("p".into()), FailureKind::Panicked),
            (TrialOutcome::Diverged("d".into()), FailureKind::Diverged),
            (TrialOutcome::NonFinite, FailureKind::NonFinite),
            (TrialOutcome::TimedOut, FailureKind::TimedOut),
        ];
        for (outcome, kind) in cases {
            match CoreError::from_outcome(&outcome) {
                Some(CoreError::Trial(f)) => assert_eq!(f.kind, kind),
                other => panic!("expected Trial, got {other:?}"),
            }
        }
    }

    #[test]
    fn trial_failure_converts_via_from() {
        let err: CoreError = trial_failure().into();
        assert!(matches!(err, CoreError::Trial(_)));
    }
}
