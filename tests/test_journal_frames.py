"""Property tests: what opening a journal makes of a cut or damaged
segment.

A torn write can only cut a segment short, so every cut of the last
segment reopens to exactly the whole records before it. Damage inside
the file — a length prefix or terminator that no cut could produce —
is corruption: opening raises and leaves the bytes alone.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.corpus.document import Document
from repro.ingest import CorpusJournal, JournalError

PROFILE = settings(max_examples=50, deadline=None, derandomize=True)

texts = st.lists(
    st.text(
        alphabet=st.characters(blacklist_categories=("Cs",)),
        max_size=40,
    ),
    min_size=1,
    max_size=6,
)


def _write_journal(directory: Path, bodies: list[str]) -> Path:
    journal = CorpusJournal(directory, fsync=False)
    journal.append(
        [
            Document(doc_id=f"d{i}", text=text)
            for i, text in enumerate(bodies)
        ]
    )
    (segment,) = journal._segments()
    return segment


def _frame_ends(data: bytes) -> list[int]:
    """The end offset of each whole frame in ``data``."""
    ends = []
    position = 0
    while position < len(data):
        newline = data.index(b"\n", position)
        position = newline + 1 + int(data[position:newline]) + 1
        ends.append(position)
    return ends


@PROFILE
@given(bodies=texts, data=st.data())
def test_any_cut_of_the_last_segment_keeps_the_whole_records(
    bodies, data
):
    with tempfile.TemporaryDirectory() as tmp:
        segment = _write_journal(Path(tmp), bodies)
        full = segment.read_bytes()
        cut = data.draw(st.integers(0, len(full)), label="cut")
        segment.write_bytes(full[:cut])
        whole = [end for end in _frame_ends(full) if end <= cut]
        reopened = CorpusJournal(Path(tmp), fsync=False)
        assert [r.document.text for r in reopened.replay()] == bodies[
            : len(whole)
        ]
        clean = whole[-1] if whole else 0
        assert segment.stat().st_size == clean
        assert reopened.truncated_bytes == cut - clean


def _damage(data: bytes, start: int, end: int, kind: str) -> bytes:
    """``data`` with one frame ``[start, end)`` damaged."""
    newline = data.index(b"\n", start)
    length = int(data[start:newline])
    if kind == "longer":
        prefix = b"%d" % (length + 1)
    elif kind == "much-longer":
        prefix = b"9" + data[start:newline]
    elif kind == "shorter":
        prefix = b"%d" % (length - 1)
    elif kind == "not-a-digit":
        prefix = b"x" + data[start + 1:newline]
    else:  # "terminator"
        return data[: end - 1] + b" " + data[end:]
    return data[:start] + prefix + data[newline:]


@PROFILE
@given(
    bodies=texts.filter(lambda bodies: len(bodies) >= 2),
    kind=st.sampled_from(
        ("longer", "much-longer", "shorter", "not-a-digit", "terminator")
    ),
    data=st.data(),
)
def test_damage_before_the_last_frame_is_corruption(bodies, kind, data):
    with tempfile.TemporaryDirectory() as tmp:
        segment = _write_journal(Path(tmp), bodies)
        full = segment.read_bytes()
        ends = _frame_ends(full)
        frame = data.draw(st.integers(0, len(ends) - 2), label="frame")
        start = ends[frame - 1] if frame else 0
        damaged = _damage(full, start, ends[frame], kind)
        segment.write_bytes(damaged)
        with pytest.raises(JournalError):
            CorpusJournal(Path(tmp), fsync=False)
        assert segment.read_bytes() == damaged
