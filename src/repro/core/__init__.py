"""Core of the reproduction: the Surveyor probabilistic model and driver."""

from .._exports import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".calibration": (
        "CalibrationError",
        "SubjectiveObjectiveLink",
        "fit_link",
    ),
    ".em": ("EMLearner", "EMResult", "EMTrace"),
    ".errors": (
        "CheckpointError",
        "ExtractionError",
        "ModelFitError",
        "ReproError",
    ),
    ".model": ("UserBehaviorModel",),
    ".params": (
        "DEFAULT_AGREEMENT_GRID",
        "DEFAULT_INITIAL_PARAMETERS",
        "ModelParameters",
        "PoissonRates",
    ),
    ".query": (
        "QueryEngine",
        "QueryError",
        "QueryHit",
        "SubjectiveQuery",
    ),
    ".result": ("OpinionTable",),
    ".surveyor": (
        "DEFAULT_OCCURRENCE_THRESHOLD",
        "FittedCombination",
        "Surveyor",
        "SurveyorResult",
    ),
    ".types": (
        "EvidenceCounts",
        "Opinion",
        "Polarity",
        "PropertyTypeKey",
        "SubjectiveProperty",
    ),
})

__all__ = [
    "CalibrationError",
    "CheckpointError",
    "DEFAULT_AGREEMENT_GRID",
    "DEFAULT_INITIAL_PARAMETERS",
    "DEFAULT_OCCURRENCE_THRESHOLD",
    "EMLearner",
    "EMResult",
    "EMTrace",
    "EvidenceCounts",
    "ExtractionError",
    "FittedCombination",
    "ModelFitError",
    "ModelParameters",
    "Opinion",
    "OpinionTable",
    "PoissonRates",
    "Polarity",
    "PropertyTypeKey",
    "QueryEngine",
    "QueryError",
    "QueryHit",
    "ReproError",
    "SubjectiveObjectiveLink",
    "SubjectiveQuery",
    "SubjectiveProperty",
    "Surveyor",
    "SurveyorResult",
    "UserBehaviorModel",
    "fit_link",
]
