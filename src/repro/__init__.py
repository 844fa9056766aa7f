"""Surveyor — mining subjective properties on the Web.

A faithful, laptop-scale reproduction of Trummer et al., *Mining
Subjective Properties on the Web* (SIGMOD 2015). The package mines the
dominant opinion about whether a subjective property (``cute``,
``very big``) applies to a typed knowledge-base entity, from positive
and negative statements extracted from text, using an unsupervised
probabilistic model of author behaviour fit per property-type
combination via EM.

Quickstart::

    from repro import (
        CorpusGenerator, Surveyor, SurveyorPipeline, evaluation_kb,
    )

See ``examples/quickstart.py`` for a runnable end-to-end walkthrough.

Imports: a process imports only the code its command runs. The names
above, and those of ``repro.core`` and ``repro.pipeline``, resolve on
first access (:mod:`repro._exports`), and ``repro.cli`` imports a
command's modules inside that command. Two rules keep it so:

* nothing on the ``mine`` or ``serve`` path imports scipy outside
  ``core/em.py`` (which needs ``scipy.special`` for every fit);
  ``scipy.optimize`` and ``scipy.stats`` are imported inside
  ``calibration._fit_logistic`` and ``correlation.correlation_report``,
  their one caller each. ``repro serve`` without ``--ingest-journal``
  imports no numpy at all;
* ``repro.obs`` never imports ``repro.evaluation`` at module level. The
  harness imports the pipeline, which imports obs, so such an import
  is circular when ``repro.pipeline`` is imported first.

``tests/test_imports.py`` checks both in a fresh interpreter.
"""

from ._exports import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".baselines": (
        "MajorityVote",
        "ScaledMajorityVote",
        "SurveyorInterpreter",
        "WebChildLike",
        "standard_interpreters",
    ),
    ".analysis": ("find_controversial",),
    ".core": (
        "EMLearner",
        "QueryEngine",
        "SubjectiveQuery",
        "fit_link",
        "SubjectiveObjectiveLink",
        "EvidenceCounts",
        "ModelParameters",
        "Opinion",
        "OpinionTable",
        "Polarity",
        "PropertyTypeKey",
        "SubjectiveProperty",
        "Surveyor",
        "SurveyorResult",
        "UserBehaviorModel",
    ),
    ".corpus": (
        "CorpusGenerator",
        "NoiseProfile",
        "Scenario",
        "TrueParameters",
        "WebCorpus",
        "covariate_scenario",
        "curated_scenario",
    ),
    ".crowd": ("SurveyRunner", "curated_cases"),
    ".evaluation": ("EvaluationHarness", "evaluate_table"),
    ".extraction": ("EvidenceCounter", "EvidenceExtractor"),
    ".kb": ("Entity", "KnowledgeBase", "evaluation_kb", "full_kb", "load_tsv"),
    ".nlp": ("Annotator",),
    ".pipeline": ("SurveyorPipeline",),
    ".serve": ("OpinionIndex", "OpinionService", "QueryCache"),
    ".storage": ("load", "save"),
})

__version__ = "1.0.0"

__all__ = [
    "Annotator",
    "CorpusGenerator",
    "EMLearner",
    "Entity",
    "EvaluationHarness",
    "EvidenceCounter",
    "EvidenceCounts",
    "EvidenceExtractor",
    "KnowledgeBase",
    "MajorityVote",
    "ModelParameters",
    "NoiseProfile",
    "Opinion",
    "OpinionIndex",
    "OpinionService",
    "OpinionTable",
    "QueryCache",
    "Polarity",
    "PropertyTypeKey",
    "QueryEngine",
    "SubjectiveQuery",
    "ScaledMajorityVote",
    "Scenario",
    "SubjectiveProperty",
    "SurveyRunner",
    "Surveyor",
    "SurveyorInterpreter",
    "SurveyorPipeline",
    "SubjectiveObjectiveLink",
    "SurveyorResult",
    "TrueParameters",
    "UserBehaviorModel",
    "WebChildLike",
    "WebCorpus",
    "covariate_scenario",
    "curated_cases",
    "curated_scenario",
    "evaluate_table",
    "evaluation_kb",
    "find_controversial",
    "fit_link",
    "load",
    "load_tsv",
    "save",
    "full_kb",
    "standard_interpreters",
    "__version__",
]
