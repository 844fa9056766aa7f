"""Multi-process serving: ``SO_REUSEPORT`` workers under a supervisor.

``repro serve --workers N`` runs N forked worker processes, each with
its own asyncio event loop (:mod:`repro.serve.aio`), its own
:class:`~repro.serve.server.OpinionService`, and its own listening
socket bound to the *same* address with ``SO_REUSEPORT`` — the kernel
load-balances incoming connections across the listeners, so there is
no shared accept queue, no thundering herd, and no parent proxy on
the data path. The parent binds first (so ``--port 0`` learns the
ephemeral port before any child exists, and holds the port for the
supervisor's lifetime), prints the banner exactly once, and then only
supervises:

* **SIGTERM/SIGINT** — broadcast SIGTERM, let every worker drain
  in-flight requests (``--drain-timeout``), reap them, and SIGKILL
  stragglers a grace period later, so shutdown always completes.
* **SIGHUP** — bump the shared *reload epoch* and broadcast SIGHUP:
  every worker hot-swaps from the artefact path and lands on the same
  generation.
* **SIGUSR1** (from a worker) — a worker that just swapped via
  ``POST /admin/reload`` already published the new epoch; the
  supervisor re-broadcasts SIGHUP so the sibling workers converge.
  The initiating worker recognises its own epoch and skips the
  redundant reload.

Cross-worker state lives in a throwaway runtime directory: the epoch
file (fcntl-locked read-modify-write) and pickled per-worker
:class:`~repro.obs.metrics.MetricsRegistry` snapshots that any worker
merges on a ``/metrics`` scrape. Workers take no ingest journal
(``--ingest-journal`` needs ``--workers 1``). Generations stay in
lockstep because every worker performs the same number of swaps, each
one validated through the usual snapshot-swap path.
``/admin/rollback`` stays per-worker (an operator escape hatch,
documented in docs/serving.md).
"""

from __future__ import annotations

import contextlib
import fcntl
import json
import os
import pickle
import shutil
import signal
import socket
import sys
import tempfile
import time
import traceback
from pathlib import Path
from typing import Any, Callable, Iterator

from ..storage.serialize import _atomic_write_json

#: Seconds between periodic per-worker metrics snapshot dumps.
DEFAULT_DUMP_INTERVAL = 0.5

#: Extra seconds past ``--drain-timeout`` before stragglers are
#: SIGKILLed (covers drain bookkeeping and interpreter teardown).
KILL_GRACE_SECONDS = 2.0


def make_reuseport_socket(host: str, port: int) -> socket.socket:
    """A bound (not listening) TCP socket with ``SO_REUSEPORT`` set.

    Every worker binds its own; the first bind (the supervisor's)
    reserves the port, so ``--port 0`` is resolved exactly once.
    """
    family = socket.AF_INET6 if ":" in host else socket.AF_INET
    sock = socket.socket(family, socket.SOCK_STREAM)
    try:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        sock.bind((host, port))
    except BaseException:
        sock.close()
        raise
    return sock


# ---------------------------------------------------------------------------
# Shared runtime directory (epoch file + metrics snapshots)
# ---------------------------------------------------------------------------

def _epoch_path(directory: Path) -> Path:
    return directory / "epoch.json"


def read_epoch(directory: str | Path) -> dict[str, Any] | None:
    """The current reload epoch record, or None before the first."""
    try:
        raw = _epoch_path(Path(directory)).read_text()
    except OSError:
        return None
    try:
        payload = json.loads(raw)
    except json.JSONDecodeError:
        return None
    return payload if isinstance(payload, dict) else None


@contextlib.contextmanager
def _locked(path: Path) -> Iterator[None]:
    with open(path, "a+b") as handle:
        fcntl.flock(handle, fcntl.LOCK_EX)
        try:
            yield
        finally:
            fcntl.flock(handle, fcntl.LOCK_UN)


def publish_epoch(directory: str | Path, path: str | None = None) -> int:
    """Atomically advance the reload epoch; returns the new value.

    ``path`` records an explicit artefact path when the reload named
    one, so sibling workers reload the same source the initiator did.
    """
    directory = Path(directory)
    with _locked(directory / "epoch.lock"):
        current = read_epoch(directory)
        epoch = (current.get("epoch", 0) if current else 0) + 1
        _atomic_write_json(
            _epoch_path(directory),
            {"epoch": epoch, "path": path},
        )
    return epoch


class WorkerRuntime:
    """One worker's view of the shared coordination directory."""

    def __init__(
        self,
        directory: str | Path,
        worker_index: int,
        worker_count: int,
        parent_pid: int,
        dump_interval: float = DEFAULT_DUMP_INTERVAL,
    ) -> None:
        self.directory = Path(directory)
        self.worker_index = int(worker_index)
        self.worker_count = int(worker_count)
        self.parent_pid = int(parent_pid)
        self.dump_interval = float(dump_interval)
        self.metrics_dir = self.directory / "metrics"
        self.metrics_dir.mkdir(parents=True, exist_ok=True)
        #: Highest epoch this worker has already applied (its own
        #: swaps publish-and-record, so the supervisor's rebroadcast
        #: is recognised and skipped).
        self.last_epoch = 0

    # -- metrics snapshots ---------------------------------------------
    def _snapshot_path(self, index: int) -> Path:
        return self.metrics_dir / f"worker-{index}.pkl"

    def dump_registry(self, registry: Any) -> None:
        """Atomically publish this worker's registry snapshot."""
        tmp = self.metrics_dir / f"worker-{self.worker_index}.tmp"
        with open(tmp, "wb") as handle:
            pickle.dump(registry, handle)
        os.replace(tmp, self._snapshot_path(self.worker_index))

    def peer_registries(self) -> list[Any]:
        """Every *other* worker's latest snapshot (best-effort: a
        worker that never dumped yet simply contributes nothing)."""
        registries = []
        for index in range(self.worker_count):
            if index == self.worker_index:
                continue
            try:
                with open(self._snapshot_path(index), "rb") as handle:
                    registries.append(pickle.load(handle))
            except (OSError, pickle.UnpicklingError, EOFError):
                continue
        return registries

    # -- reload epochs --------------------------------------------------
    def read_epoch(self) -> dict[str, Any] | None:
        return read_epoch(self.directory)

    def publish_epoch(self, path: str | None = None) -> int:
        epoch = publish_epoch(self.directory, path)
        self.last_epoch = epoch
        return epoch

    def notify_parent(self) -> None:
        """Ask the supervisor to SIGHUP the sibling workers."""
        try:
            os.kill(self.parent_pid, signal.SIGUSR1)
        except (ProcessLookupError, PermissionError):
            pass


# ---------------------------------------------------------------------------
# The supervisor
# ---------------------------------------------------------------------------

def supervise(
    host: str,
    port: int,
    workers: int,
    drain_timeout: float,
    child_main: Callable[[int, int, str, int], int],
    *,
    banner: Callable[[int], None] | None = None,
) -> int:
    """Fork ``workers`` children and coordinate their lifecycle.

    ``child_main(worker_index, bound_port, runtime_dir, ready_fd)``
    runs in each forked child and must not return to the caller's
    stack — the supervisor wraps it so the child always
    ``os._exit``\\ s. The child writes one byte to ``ready_fd`` once
    it is listening; the banner (port report) only prints after every
    worker is ready, so the advertised address accepts connections
    immediately; a fleet that never got ready is shut down without
    one. Returns the supervisor exit code: 0 after a clean drain, 1
    when a worker died unexpectedly or never got ready.
    """
    if workers < 2:
        raise ValueError(
            f"supervise needs at least 2 workers, got {workers}"
        )
    sock = make_reuseport_socket(host, port)
    bound_port = sock.getsockname()[1]
    runtime_dir = tempfile.mkdtemp(prefix="repro-serve-workers-")
    ready_read, ready_write = os.pipe()
    children: dict[int, int] = {}
    for index in range(workers):
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                sock.close()
                os.close(ready_read)
                for signum in (
                    signal.SIGTERM,
                    signal.SIGINT,
                    signal.SIGHUP,
                    signal.SIGUSR1,
                ):
                    signal.signal(signum, signal.SIG_DFL)
                code = child_main(
                    index, bound_port, runtime_dir, ready_write
                )
            except SystemExit as exit_:  # sys.exit inside the child
                code = (
                    exit_.code if isinstance(exit_.code, int) else 1
                )
            except KeyboardInterrupt:
                code = 0
            except BaseException:
                traceback.print_exc()
                code = 1
            finally:
                os._exit(code)
        children[pid] = index
    os.close(ready_write)
    ready = _await_ready(ready_read, workers)
    os.close(ready_read)
    # A fleet that did not come up is torn down below, unadvertised.
    flags = {"term": not ready, "hup": False, "usr1": False}
    if ready and banner is not None:
        banner(bound_port)

    def _on_term(signum: int, frame: Any) -> None:
        flags["term"] = True

    def _on_hup(signum: int, frame: Any) -> None:
        flags["hup"] = True

    def _on_usr1(signum: int, frame: Any) -> None:
        flags["usr1"] = True

    signal.signal(signal.SIGTERM, _on_term)
    signal.signal(signal.SIGINT, _on_term)
    signal.signal(signal.SIGHUP, _on_hup)
    signal.signal(signal.SIGUSR1, _on_usr1)

    draining = False
    kill_at: float | None = None
    exit_code = 0 if ready else 1
    try:
        while children:
            try:
                pid, status = os.waitpid(-1, os.WNOHANG)
            except ChildProcessError:  # pragma: no cover - raced
                break
            if pid:
                index = children.pop(pid, None)
                code = os.waitstatus_to_exitcode(status)
                if not draining and code != 0:
                    print(
                        f"repro serve: worker {index} exited "
                        f"unexpectedly ({code}); shutting down",
                        file=sys.stderr,
                        flush=True,
                    )
                    exit_code = 1
                    flags["term"] = True
                continue
            if flags["term"] and not draining:
                draining = True
                print(
                    "repro serve: draining (finishing in-flight "
                    "requests)",
                    file=sys.stderr,
                    flush=True,
                )
                for child in list(children):
                    _kill(child, signal.SIGTERM)
                kill_at = (
                    time.monotonic()
                    + drain_timeout
                    + KILL_GRACE_SECONDS
                )
            if flags["hup"]:
                flags["hup"] = False
                publish_epoch(runtime_dir)
                for child in list(children):
                    _kill(child, signal.SIGHUP)
            if flags["usr1"]:
                flags["usr1"] = False
                # The initiating worker already published the epoch;
                # rebroadcast so its siblings converge on it.
                for child in list(children):
                    _kill(child, signal.SIGHUP)
            if (
                kill_at is not None
                and time.monotonic() > kill_at
            ):
                for child in list(children):
                    _kill(child, signal.SIGKILL)
                kill_at = None
            time.sleep(0.05)
    finally:
        sock.close()
        shutil.rmtree(runtime_dir, ignore_errors=True)
    print(
        "repro serve: shut down cleanly", file=sys.stderr, flush=True
    )
    return exit_code


def _kill(pid: int, signum: int) -> None:
    try:
        os.kill(pid, signum)
    except ProcessLookupError:
        pass


def _await_ready(
    fd: int, workers: int, timeout: float = 30.0
) -> bool:
    """Whether every worker wrote its ready byte before ``timeout``.

    False as soon as every worker closed its end without it (they
    died at boot), so the banner never advertises an address that
    refuses connections."""
    import select

    seen = 0
    deadline = time.monotonic() + timeout
    while seen < workers:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            return False
        readable, _, _ = select.select([fd], [], [], remaining)
        if not readable:
            return False
        chunk = os.read(fd, workers - seen)
        if not chunk:  # every writer gone (workers died at boot)
            return False
        seen += len(chunk)
    return True
