"""The machine-readable response schema shared by CLI and HTTP.

The HTTP routes build their payloads through these functions, and
``repro query|ask|explain --format json`` call the routes' own
``OpinionService`` methods, so the two surfaces cannot drift apart —
tests assert they are byte-identical over the same opinion table. The
same holds for failures: every 4xx/5xx body (and the CLI's JSON-mode
error output) goes through :func:`error_response`, pinned by a
golden-file test.

All payload kinds are format-tagged like every other artefact in the
repo (``serve_ask`` / ``serve_query`` / ``serve_batch`` /
``serve_error``, version 2) and carry the index generation they were
answered from. Two distinct "degraded" notions coexist and must not be
conflated:

* ``"degraded"`` on a term or listing — the *combination* was answered
  by a majority-vote fallback rather than a model posterior, a
  property of the mined table (see docs/robustness.md).
* ``"degraded_mode"`` at the top level — the *server* is answering
  from its last good snapshot because a reload failed or the storage
  breaker is open (version 2 addition; see "Serving resilience" in
  docs/robustness.md). Builders always emit ``false``; the server
  stamps ``true`` post-cache so cached entries stay state-free.

Every JSON body the server sends is :func:`render` of its payload.
"""

from __future__ import annotations

import json
from typing import Any, Iterable

from ..core.query import QueryHit, SubjectiveQuery
from ..core.types import Opinion, PropertyTypeKey
from ..extraction.provenance import ProvenanceIndex
from .index import OpinionIndex

SERVE_SCHEMA_VERSION = 2


def render(payload: dict[str, Any]) -> bytes:
    """The wire bytes of a JSON payload (sorted keys, default
    separators); the one rule for every JSON body served."""
    return json.dumps(payload, sort_keys=True).encode()


def ask_response(
    query: SubjectiveQuery,
    hits: Iterable[QueryHit],
    index: OpinionIndex,
) -> dict[str, Any]:
    """Response for a free-text conjunctive/negated query."""
    return {
        "format": "serve_ask",
        "version": SERVE_SCHEMA_VERSION,
        "generation": index.generation,
        "degraded_mode": False,
        "query": query.text(),
        "entity_type": query.entity_type,
        "terms": [
            {
                "property": term.property.text,
                "negated": term.negated,
                "degraded": index.is_degraded(
                    term.key(query.entity_type)
                ),
            }
            for term in query.terms
        ],
        "hits": [
            {
                "entity": hit.entity_id,
                "score": hit.score,
                "per_term": list(hit.per_term),
                "confident": hit.confident,
            }
            for hit in hits
        ],
    }


def listing_response(
    key: PropertyTypeKey,
    negative: bool,
    min_probability: float,
    opinions: Iterable[Opinion],
    index: OpinionIndex,
) -> dict[str, Any]:
    """Response for a single-combination listing (``repro query``)."""
    return {
        "format": "serve_query",
        "version": SERVE_SCHEMA_VERSION,
        "generation": index.generation,
        "degraded_mode": False,
        "property": key.property.text,
        "entity_type": key.entity_type,
        "negative": bool(negative),
        "min_probability": float(min_probability),
        "degraded": index.is_degraded(key),
        "hits": [
            {
                "entity": opinion.entity_id,
                "probability": opinion.probability,
                "positive": opinion.evidence.positive,
                "negative": opinion.evidence.negative,
            }
            for opinion in opinions
        ],
    }


def explain_response(
    entity_id: str,
    key: PropertyTypeKey,
    opinion: Opinion,
    index: OpinionIndex,
    provenance: ProvenanceIndex | None,
) -> dict[str, Any]:
    """Full lineage for one answer (``repro explain`` / ``GET
    /explain``).

    The posterior and counts come from the opinion table; ``model``
    is the combination's learned ``(pA, p+S, p-S)``, ``convergence``
    its EM verdict, and the lineage the pair's bounded statement
    samples — all three from the ``provenance`` sidecar, each ``null``
    when the sidecar (or that pair's entry) is absent.
    ``lineage.available`` reports whether a sidecar was loaded at all,
    so clients can distinguish "no provenance captured" from "this
    pair had no evidence".
    """
    pair = model = convergence = None
    if provenance is not None:
        pair = provenance.for_pair(key, entity_id)
        model = provenance.model_for(key)
        convergence = provenance.convergence_for(key)
    return {
        "format": "serve_explain",
        "version": SERVE_SCHEMA_VERSION,
        "generation": index.generation,
        "degraded_mode": False,
        "entity": entity_id,
        "property": key.property.text,
        "entity_type": key.entity_type,
        "posterior": opinion.probability,
        "polarity": str(opinion.polarity),
        "decided": opinion.decided,
        "evidence": {
            "positive": opinion.evidence.positive,
            "negative": opinion.evidence.negative,
        },
        "degraded": index.is_degraded(key),
        "model": (
            None
            if model is None
            else {
                "agreement": model.agreement,
                "rate_positive": model.rate_positive,
                "rate_negative": model.rate_negative,
            }
        ),
        "convergence": (
            None if convergence is None else dict(convergence)
        ),
        "lineage": {
            "available": provenance is not None,
            "positive_seen": (
                None if pair is None else pair.positive_seen
            ),
            "negative_seen": (
                None if pair is None else pair.negative_seen
            ),
            "samples": (
                []
                if pair is None
                else [sample.to_dict() for sample in pair.samples]
            ),
        },
    }


def batch_response(
    results: list[dict[str, Any]], generation: int
) -> dict[str, Any]:
    """Envelope for ``POST /batch``: one entry per submitted query."""
    return {
        "format": "serve_batch",
        "version": SERVE_SCHEMA_VERSION,
        "generation": generation,
        "degraded_mode": False,
        "results": results,
    }


def error_response(
    code: str,
    message: str,
    *,
    retry_after: float | None = None,
    degraded: bool = False,
    request_id: str | None = None,
) -> dict[str, Any]:
    """The one error envelope for every 4xx/5xx body, HTTP and CLI.

    ``code`` is the stable machine-readable discriminator
    (``bad_request``, ``not_found``, ``rate_limited``, ``overloaded``,
    ``deadline_exceeded``, ``draining``, ``reload_failed``,
    ``breaker_open``, ``rollback_unavailable``, ...); ``error`` keeps
    the human-readable message under the key earlier clients already
    parse. ``retry_after`` mirrors the HTTP ``Retry-After`` header in
    seconds (null when retrying is not the remedy), and ``degraded``
    reports whether the server is in degraded mode at rejection time.
    ``request_id`` joins the error to its access-log line and trace
    span; the HTTP server always supplies the id it echoed in
    ``X-Request-Id``, while the CLI path has no request and emits
    null. Still schema version 2: adding a key clients never parsed
    breaks nobody, and the CLI/HTTP byte-parity test pins both sides
    moving together.
    """
    return {
        "format": "serve_error",
        "version": SERVE_SCHEMA_VERSION,
        "code": code,
        "error": message,
        "retry_after": retry_after,
        "degraded": bool(degraded),
        "request_id": request_id,
    }
