"""Append-only corpus journal: the durable front door of ingestion.

The batch pipeline reads a corpus snapshot; the streaming path needs a
*log*. :class:`CorpusJournal` persists documents as length-prefixed
JSONL records across numbered segment files, with the write protocol a
single-node WAL uses:

* **Commit = fsync.** ``append`` writes every record of the batch,
  flushes, and fsyncs the segment before the in-memory tail offset
  advances; a new segment additionally fsyncs the directory so the
  file's name survives a crash. A batch is either durable or it never
  happened.
* **Torn-tail truncation.** A crash mid-write leaves a partial record
  at the end of the newest segment only (records are appended
  sequentially). Opening a journal scans every segment; a torn tail on
  the last segment is truncated back to the last whole record, while
  damage anywhere else is real corruption and raises
  :class:`JournalError`.
* **Monotonic offsets.** Every record carries the next integer offset;
  ``replay(after=n)`` resumes exactly where a consumer's applied
  watermark left off. Appending at-or-below the committed tail raises
  :class:`DuplicateOffsetError` — the guard that catches two writers
  (or one writer with a stale view) sharing a journal directory.

Record wire format (one record)::

    <payload-byte-length as ASCII decimal>\\n
    <payload: JSON {"offset", "doc_id", "text", "region"}>\\n

Guarantees / Invariants
-----------------------

* A torn write can only cut the file short. Opening therefore treats
  a frame as torn in exactly two cases: its length prefix parses and
  the frame (payload plus terminator) runs past end-of-file with no
  newline after the prefix, or the rest of the file is a partial,
  digits-only length prefix. Payloads are ASCII-escaped JSON, so a
  frame cut short never holds a raw newline. Only such a tail, on the
  last segment, is truncated.
* Every other bad frame is corruption: a malformed length prefix with
  more bytes after it, a length that runs past end-of-file across a
  later newline (it swallowed the frames after it), a full-length
  frame whose terminator is not ``\\n``, or a complete frame whose
  JSON does not decode. Opening raises :class:`JournalError` and
  leaves every segment's bytes as they were, so a damaged length
  prefix never deletes the committed records after it.
* Frames carry no checksum: a bit flip inside a payload that still
  decodes is not detected.

Crash simulation reuses the pipeline's
:class:`~repro.pipeline.faults.FaultInjector`: when one is attached,
its ``on_document`` hook fires *between the first and second half of a
record's bytes* — an injected fault leaves a torn record on disk
exactly as a mid-commit kill would, and the journal refuses further
appends until reopened (which repairs the tail).
"""

from __future__ import annotations

import bisect
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator

from ..core.errors import ReproError
from ..corpus.document import Document

JOURNAL_SEGMENT_PREFIX = "segment-"
JOURNAL_SEGMENT_SUFFIX = ".jrnl"

#: Roll to a new segment once the current one reaches this many bytes.
DEFAULT_MAX_SEGMENT_BYTES = 4 << 20


class JournalError(ReproError):
    """Corruption or protocol misuse in a corpus journal."""


class DuplicateOffsetError(JournalError):
    """An append targeted an offset at or below the committed tail."""


@dataclass(frozen=True, slots=True)
class JournalRecord:
    """One committed document with its journal offset."""

    offset: int
    document: Document


def _segment_name(index: int) -> str:
    return f"{JOURNAL_SEGMENT_PREFIX}{index:05d}{JOURNAL_SEGMENT_SUFFIX}"


def _encode_record(offset: int, document: Document) -> bytes:
    payload = json.dumps(
        {
            "offset": int(offset),
            "doc_id": document.doc_id,
            "text": document.text,
            "region": document.region,
        },
        sort_keys=True,
    ).encode()
    return b"%d\n%s\n" % (len(payload), payload)


def _decode_payload(raw: bytes, context: str) -> JournalRecord:
    try:
        # Decode to str first: json.loads on bytes runs encoding
        # detection per call, which dominates large replays.
        payload = json.loads(raw.decode("utf-8"))
        return JournalRecord(
            offset=int(payload["offset"]),
            document=Document(
                doc_id=str(payload["doc_id"]),
                text=str(payload["text"]),
                region=str(payload.get("region", "")),
            ),
        )
    except (ValueError, KeyError, TypeError) as error:
        # A complete frame that does not decode was never torn — the
        # length prefix guarantees we are looking at exactly the bytes
        # the writer framed — so this is corruption, not a crash tail.
        raise JournalError(
            f"{context}: corrupt journal record: {error}"
        ) from error


def _scan_segment(
    data: bytes,
    context: str,
    allow_torn_tail: bool,
    start: int = 0,
) -> tuple[list[tuple[int, JournalRecord]], int]:
    """Parse one segment's bytes from ``start``.

    Returns ``(entries, clean_length)`` where each entry is
    ``(record_start_byte, record)`` and ``clean_length`` is the byte
    length of the whole-record prefix. A frame counts as torn — cut
    short by a crash mid-append — only when the data ends inside it:
    its length prefix parses and the frame runs past the end with no
    newline after the prefix, or what is left is a partial,
    digits-only prefix. With ``allow_torn_tail``
    a torn frame ends the scan (clean_length < len(data)); otherwise
    it raises. Any other bad frame is corruption and always raises.
    """
    records: list[tuple[int, JournalRecord]] = []
    position = start
    size = len(data)
    while position < size:
        newline = data.find(b"\n", position)
        if newline == -1:
            if not data[position:].isdigit():
                raise _corrupt(context, position, "malformed length prefix")
            torn = True
        else:
            prefix = data[position:newline]
            if not prefix.isdigit():
                raise _corrupt(context, position, "malformed length prefix")
            body_start = newline + 1
            body_end = body_start + int(prefix)
            torn = body_end >= size
            if torn and data.find(b"\n", body_start) != -1:
                # Payloads are ASCII-escaped JSON with no raw newline,
                # so a frame cut short holds none after its prefix; a
                # later terminator means the length itself is wrong.
                raise _corrupt(context, position, "length runs past a frame")
        if torn:
            if allow_torn_tail:
                return records, position
            raise JournalError(
                f"{context}: torn record at byte {position} of a "
                "non-final segment"
            )
        if data[body_end] != 0x0A:
            raise _corrupt(context, position, "frame not terminated")
        records.append(
            (
                position,
                _decode_payload(data[body_start:body_end], context),
            )
        )
        position = body_end + 1
    return records, position


def _corrupt(context: str, position: int, reason: str) -> JournalError:
    return JournalError(
        f"{context}: corrupt journal frame at byte {position}: {reason}"
    )


def _fsync_dir(directory: Path) -> None:
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


class CorpusJournal:
    """Append-only durable document log over a directory of segments.

    Parameters
    ----------
    directory:
        Created if missing. Only journal segments live here (a state
        file managed by the ingest pipeline may sit alongside).
    max_segment_bytes:
        Roll to a fresh segment once the tail reaches this size.
    fault_injector:
        Optional :class:`~repro.pipeline.faults.FaultInjector`; its
        ``on_document(doc_id)`` hook fires mid-record so tests can
        simulate a kill between payload write and commit.
    fsync:
        Disable only in tests that measure pure CPU; production
        appends are not durable without it.
    """

    def __init__(
        self,
        directory: str | Path,
        *,
        max_segment_bytes: int = DEFAULT_MAX_SEGMENT_BYTES,
        fault_injector: Any | None = None,
        fsync: bool = True,
    ) -> None:
        if max_segment_bytes < 1:
            raise ValueError(
                "max_segment_bytes must be positive, got "
                f"{max_segment_bytes}"
            )
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.max_segment_bytes = int(max_segment_bytes)
        self.fault_injector = fault_injector
        self.fsync = bool(fsync)
        #: Bytes dropped by torn-tail truncation during open (0 on a
        #: clean journal) — surfaced so operators can see a repair.
        self.truncated_bytes = 0
        #: Set after an append died mid-record: the on-disk tail is
        #: torn and this instance's view is unreliable. Reopening
        #: repairs the tail.
        self._dirty = False
        self._last_offset = -1
        self._n_records = 0
        # In-memory record index built during open and maintained by
        # append: parallel arrays of (offset, segment ordinal, start
        # byte). replay(after) bisects here instead of re-decoding
        # every record below the consumer's watermark.
        self._idx_offsets: list[int] = []
        self._idx_segment: list[int] = []
        self._idx_position: list[int] = []
        self._segment_list: list[Path] = []
        # (name, size) of the tail segment as this instance last saw
        # it on disk, None while there is no segment.
        self._tail: tuple[str, int] | None = None
        self._open()

    # ------------------------------------------------------------------
    # Open / recovery
    # ------------------------------------------------------------------
    def _segments(self) -> list[Path]:
        return sorted(
            self.directory.glob(
                f"{JOURNAL_SEGMENT_PREFIX}*{JOURNAL_SEGMENT_SUFFIX}"
            )
        )

    def _open(self) -> None:
        segments = self._segments()
        last_offset = -1
        total = 0
        for index, segment in enumerate(segments):
            is_last = index == len(segments) - 1
            data = segment.read_bytes()
            entries, clean_length = _scan_segment(
                data, str(segment), allow_torn_tail=is_last
            )
            if clean_length < len(data):
                # Torn tail from a mid-commit crash: drop the partial
                # record, keeping every whole one before it.
                self.truncated_bytes += len(data) - clean_length
                with segment.open("r+b") as handle:
                    handle.truncate(clean_length)
                    if self.fsync:
                        handle.flush()
                        os.fsync(handle.fileno())
            for position, record in entries:
                if record.offset <= last_offset:
                    raise JournalError(
                        f"{segment}: offset {record.offset} is not "
                        f"above the preceding offset {last_offset}"
                    )
                last_offset = record.offset
                self._idx_offsets.append(record.offset)
                self._idx_segment.append(index)
                self._idx_position.append(position)
            total += len(entries)
        self._segment_list = segments
        self._last_offset = last_offset
        self._n_records = total
        if segments:
            self._tail = (segments[-1].name, segments[-1].stat().st_size)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def last_offset(self) -> int:
        """Highest committed offset (``-1`` when empty)."""
        return self._last_offset

    @property
    def n_records(self) -> int:
        return self._n_records

    @property
    def n_segments(self) -> int:
        return len(self._segments())

    def behind_disk(self) -> bool:
        """Whether the segments on disk changed since this instance
        last opened or appended to them: another writer appended, so
        this view's offsets are stale and it must be reopened before
        it appends."""
        segments = self._segments()
        if not segments:
            return self._tail is not None
        return self._tail != (segments[-1].name, segments[-1].stat().st_size)

    # ------------------------------------------------------------------
    # Append
    # ------------------------------------------------------------------
    def _tail_segment(self) -> Path:
        segments = self._segments()
        if segments:
            tail = segments[-1]
            if tail.stat().st_size < self.max_segment_bytes:
                return tail
            next_index = (
                int(
                    tail.name[
                        len(JOURNAL_SEGMENT_PREFIX):
                        -len(JOURNAL_SEGMENT_SUFFIX)
                    ]
                )
                + 1
            )
        else:
            next_index = 0
        fresh = self.directory / _segment_name(next_index)
        fresh.touch()
        if self.fsync:
            _fsync_dir(self.directory)
        self._segment_list.append(fresh)
        return fresh

    def append(
        self,
        documents: list[Document],
        offsets: list[int] | None = None,
    ) -> list[int]:
        """Durably append one batch; returns the committed offsets.

        ``offsets`` (normally omitted) lets a replicating caller pin
        explicit offsets; they must be strictly increasing and above
        the committed tail, otherwise :class:`DuplicateOffsetError` —
        nothing is written in that case.
        """
        if self._dirty:
            raise JournalError(
                f"{self.directory}: a previous append died "
                "mid-commit; reopen the journal to repair its tail"
            )
        if not documents:
            return []
        if offsets is None:
            offsets = list(
                range(
                    self._last_offset + 1,
                    self._last_offset + 1 + len(documents),
                )
            )
        if len(offsets) != len(documents):
            raise JournalError(
                f"{len(offsets)} offsets for "
                f"{len(documents)} documents"
            )
        floor = self._last_offset
        for offset in offsets:
            if offset <= floor:
                raise DuplicateOffsetError(
                    f"{self.directory}: offset {offset} is not above "
                    f"the committed tail {floor}"
                )
            floor = offset
        segment = self._tail_segment()
        segment_ordinal = self._segment_list.index(segment)
        injector = self.fault_injector
        positions: list[int] = []
        with segment.open("ab") as handle:
            handle.seek(0, os.SEEK_END)
            for offset, document in zip(offsets, documents):
                if not document.doc_id:
                    document = Document(
                        doc_id=f"ingested-{offset:08d}",
                        text=document.text,
                        region=document.region,
                    )
                record = _encode_record(offset, document)
                midpoint = max(1, len(record) // 2)
                positions.append(handle.tell())
                handle.write(record[:midpoint])
                if injector is not None:
                    try:
                        injector.on_document(document.doc_id)
                    except Exception:
                        # Simulated mid-commit kill: the half-written
                        # record stays on disk as a torn tail; only a
                        # reopen may touch this journal again.
                        handle.flush()
                        self._dirty = True
                        raise
                handle.write(record[midpoint:])
            handle.flush()
            if self.fsync:
                os.fsync(handle.fileno())
            self._tail = (segment.name, handle.tell())
        for offset, position in zip(offsets, positions):
            self._idx_offsets.append(offset)
            self._idx_segment.append(segment_ordinal)
            self._idx_position.append(position)
        self._last_offset = offsets[-1]
        self._n_records += len(documents)
        return list(offsets)

    # ------------------------------------------------------------------
    # Replay
    # ------------------------------------------------------------------
    def replay(self, after: int = -1) -> Iterator[JournalRecord]:
        """Committed records with offsets strictly above ``after``.

        Seeks through the in-memory index: only records above the
        watermark are read and decoded, so resuming near the tail of
        a large journal costs the delta, not the history.
        """
        start = bisect.bisect_right(self._idx_offsets, after)
        total = len(self._idx_offsets)
        while start < total:
            ordinal = self._idx_segment[start]
            segment = self._segment_list[ordinal]
            entries, _ = _scan_segment(
                segment.read_bytes(),
                str(segment),
                allow_torn_tail=True,
                start=self._idx_position[start],
            )
            for _, record in entries:
                yield record
            while (
                start < total
                and self._idx_segment[start] == ordinal
            ):
                start += 1
