"""EM convergence telemetry: per-combination fit trajectories.

The paper fits one user-behaviour model per property-type combination
(380,000 of them in the full run); debugging interpretation quality
means looking at *how* each fit converged, not just the final
parameters. A :class:`ConvergenceRecord` captures one combination's
per-iteration log-likelihood and the ``pA`` / ``np+S`` / ``np−S``
trajectories, plus a verdict:

* ``converged`` — the log-likelihood delta fell below tolerance;
* ``max-iterations`` — EM ran out of iterations without converging;
* ``degraded-fallback`` — the fit went numerically degenerate and fell
  back to per-entity majority vote (see PR 1's resilience layer).

Records are plain dataclasses over primitives, JSON-round-trippable so
they persist alongside checkpoints and inside ``--metrics-out`` files.
Rendering (sparklines) lives in :mod:`repro.obs.stats`.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any

from ..storage.serialize import FORMAT_VERSION, _atomic_write_json, load

#: Filename used when records are persisted next to shard checkpoints.
CONVERGENCE_BASENAME = "em-convergence.json"


@dataclass(frozen=True, slots=True)
class ConvergenceRecord:
    """One combination's EM fit, flattened for telemetry."""

    key: str
    verdict: str  # converged | max-iterations | degraded-fallback
    iterations: int
    converged: bool
    degraded: bool
    n_entities: int
    n_statements: int
    final_log_likelihood: float
    log_likelihoods: tuple[float, ...]
    agreement_path: tuple[float, ...]
    rate_positive_path: tuple[float, ...]
    rate_negative_path: tuple[float, ...]

    def to_dict(self) -> dict[str, Any]:
        payload = asdict(self)
        for field in (
            "log_likelihoods",
            "agreement_path",
            "rate_positive_path",
            "rate_negative_path",
        ):
            payload[field] = list(payload[field])
        return payload

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "ConvergenceRecord":
        """Forward-compatible read: ``key`` is required; every other
        field defaults when absent and unknown keys are ignored, so
        records written by newer (or older) versions still load."""
        if "key" not in payload:
            raise KeyError("convergence record missing 'key'")
        return cls(
            key=str(payload["key"]),
            verdict=str(payload.get("verdict", "unknown")),
            iterations=int(payload.get("iterations", 0)),
            converged=bool(payload.get("converged", False)),
            degraded=bool(payload.get("degraded", False)),
            n_entities=int(payload.get("n_entities", 0)),
            n_statements=int(payload.get("n_statements", 0)),
            final_log_likelihood=float(
                payload.get("final_log_likelihood", float("nan"))
            ),
            log_likelihoods=_floats(payload, "log_likelihoods"),
            agreement_path=_floats(payload, "agreement_path"),
            rate_positive_path=_floats(payload, "rate_positive_path"),
            rate_negative_path=_floats(payload, "rate_negative_path"),
        )


def _floats(payload: dict[str, Any], name: str) -> tuple[float, ...]:
    return tuple(float(value) for value in payload.get(name, ()))


def record_from_fit(fit: Any) -> ConvergenceRecord:
    """Build a record from a ``FittedCombination`` (duck-typed: needs
    ``key``, ``trace``, ``n_entities``, ``n_statements``).

    The parameter trajectories are taken from the trace's
    ``parameters_path`` — populated when the learner ran with
    ``record_path=True``; otherwise they are empty and only the
    log-likelihood series is available.
    """
    trace = fit.trace
    path = trace.parameters_path
    final_ll = (
        trace.log_likelihoods[-1]
        if trace.log_likelihoods
        else float("nan")
    )
    return ConvergenceRecord(
        key=str(fit.key),
        verdict=trace.verdict,
        iterations=trace.iterations,
        converged=trace.converged,
        degraded=trace.degraded,
        n_entities=fit.n_entities,
        n_statements=fit.n_statements,
        final_log_likelihood=final_ll,
        log_likelihoods=tuple(trace.log_likelihoods),
        agreement_path=tuple(p.agreement for p in path),
        rate_positive_path=tuple(p.rate_positive for p in path),
        rate_negative_path=tuple(p.rate_negative for p in path),
    )


def records_from_result(result: Any) -> list[ConvergenceRecord]:
    """Records for every fit in a ``SurveyorResult``, key-sorted."""
    return [
        record_from_fit(result.fits[key])
        for key in sorted(result.fits, key=str)
    ]


def records_to_payload(
    records: list[ConvergenceRecord],
) -> list[dict[str, Any]]:
    return [record.to_dict() for record in records]


def convergence_to_dict(
    records: list[ConvergenceRecord],
) -> dict[str, Any]:
    return {
        "format": "em_convergence",
        "version": FORMAT_VERSION,
        "combinations": records_to_payload(records),
    }


def convergence_from_dict(
    payload: dict[str, Any],
) -> list[ConvergenceRecord]:
    return [
        ConvergenceRecord.from_dict(row)
        for row in payload["combinations"]
    ]


def save_convergence(
    records: list[ConvergenceRecord], path: str | Path
) -> Path:
    """Persist records (e.g. next to the run's shard checkpoints)."""
    return _atomic_write_json(path, convergence_to_dict(records))


def load_convergence(path: str | Path) -> list[ConvergenceRecord]:
    return load(path, "em_convergence")
