"""Canonical JSON text: the one encoding every artefact is written in.

Compact separators and sorted keys, exactly what
``json.dumps(payload, sort_keys=True, separators=(",", ":"))`` gives.
Compact separators keep the encoder on CPython's C implementation (any
``indent`` drops it to the pure-Python one); sorted keys keep the bytes
deterministic. Payloads are fresh trees of primitives, so the
encoder's per-container cycle bookkeeping is skipped
(``check_circular=False``, ~15% of encode time).

A dict value may be :class:`Encoded`: JSON text already in this
canonical form, spliced verbatim instead of encoded again. A writer
that keeps the text of the parts that did not change (the provenance
ledger keeps one per lineage pair) then pays only for what changed,
and still writes the same bytes as encoding the decoded payload whole.

This module imports nothing of the library, so every layer may use it.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii
from typing import Any

_encode = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), check_circular=False
).encode


class Encoded(str):
    """JSON text in canonical form, spliced as is where it is a dict
    value in a payload given to :func:`encode`."""

    __slots__ = ()


def encode(payload: Any) -> str:
    """The canonical JSON text of ``payload``, splicing every
    :class:`Encoded` dict value (in dicts nested in dicts, not in
    lists). Dicts that hold one must have string keys."""
    if type(payload) is Encoded:
        return payload
    if type(payload) is dict:
        spliced = _spliced(payload)
        if spliced is not None:
            return spliced
    return _encode(payload)


def _spliced(obj: dict) -> str | None:
    """``obj``'s text if an :class:`Encoded` value sits in it or in a
    dict nested in it; ``None`` (encode it whole) otherwise."""
    texts: dict[str, str] | None = None
    for key, value in obj.items():
        if type(value) is Encoded:
            text = value
        elif type(value) is dict:
            text = _spliced(value)
            if text is None:
                continue
        else:
            continue
        if texts is None:
            texts = {}
        texts[key] = text
    if texts is None:
        return None
    return "{" + ",".join([
        encode_basestring_ascii(key) + ":" + (
            texts[key] if key in texts else _encode(obj[key])
        )
        for key in sorted(obj)
    ]) + "}"
