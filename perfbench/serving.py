"""The serving workloads: ``query_mix`` and ``ingest_live``.

Both run ``repro serve --workers 1`` as a child process over a table
mined from the template world, and drive it with the open-loop
generator in :mod:`loadgen` from this process.

``query_mix`` draws ``GET /query`` requests Zipf-distributed over every
grammar-valid 1-3-term query on the mined (type, property) pairs, with
and without ``not``. It reports latency at a fixed offered rate and the
capacity (``ops_per_s``): the requests per second the server completes
while offered far more, above which its backlog grows.

``ingest_live`` bootstraps an ingest journal with 90% of the template
corpus, serves it with ``--ingest-journal``, and POSTs the held-out
documents to ``/admin/ingest`` in batches on a fixed schedule on one
connection while a second connection sends reads at a fixed rate. Its
``ops_per_s`` is documents made live per second of an ingest POST: the
batch size over the median time from a POST's due time to its 200.
"""

from __future__ import annotations

import gc
import http.client
import itertools
import json
import os
import random
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from urllib.parse import quote_plus

import loadgen
import speed
import worlds
from repro.core.query import SubjectiveQuery
from repro.corpus import WebCorpus
from repro.ingest import CorpusJournal, IngestPipeline
from repro.nlp import lexicon
from repro.pipeline import SurveyorPipeline
from repro.serve import OpinionService
from repro.storage.serialize import load, save

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Zipf exponent of the query popularity distribution: 1, Zipf's law
#: in its plain form. Chosen, not measured: no query log of this
#: service exists to fit it to.
ZIPF_EXPONENT = 1.0
#: Seed of the shuffle that gives each query its popularity rank.
RANKING_SEED = "query-ranks"
#: Offered rate of the query_mix latency phase (requests/second).
QUERY_RATE = 3000.0
#: Unmeasured warm-up that fills the server's result cache first.
WARMUP_SECONDS = 1.0
#: Share of the measured time spent at the fixed rate; the rest goes to
#: saturation probes, each offering SATURATION_RATE (far above what one
#: worker serves) for SATURATION_SECONDS and counting completions. The
#: capacity is the median probe: a probe that meets one of the server's
#: ~110 ms collector pauses reads some 25% low.
FIXED_SHARE = 0.35
SATURATION_RATE = 40_000.0
SATURATION_SECONDS = 0.2
#: Latency phases run in slices about this long, each bracketed by
#: speed probes, so CPU drift within a run is scaled out slice by slice.
SLICE_SECONDS = 1.5
#: Set-ups per run; ``setup_s`` reports their median.
SETUP_REPEATS = 3
#: Pause after toggling the traced child's recording.
TOGGLE_SETTLE = 0.05

#: ingest_live: held-out share, batch size and schedule, chosen, not
#: measured from real traffic. A batch is three of the 4-document
#: batches of ``benchmarks/bench_ingest.py``'s freshness probe: with 4
#: documents the spread of ``freshness_p50_ms`` over five seeds was
#: 0.144, with 12 it was 0.075. A POST every 0.2 s is about 1.7 ingest
#: cycles, so a batch seldom waits for the one before it; 400 reads/s
#: is a few percent of ``query_mix``'s capacity.
HELD_OUT_SHARE = 0.10
INGEST_BATCH = 12
INGEST_INTERVAL = 0.2
READ_RATE = 400.0


# ----------------------------------------------------------------------
# The server child
# ----------------------------------------------------------------------
@dataclass
class Server:
    proc: subprocess.Popen
    port: int
    stderr_path: Path

    @classmethod
    def start(
        cls,
        opinions: Path,
        workdir: Path,
        cpu: int,
        extra: list[str] = (),
        spans: Path | None = None,
    ) -> "Server":
        args = [
            str(opinions), "--port", "0", "--workers", "1", *extra,
        ]
        if spans is None:
            cmd = [sys.executable, "-m", "repro", "serve", *args]
        else:
            cmd = [
                sys.executable, str(HERE / "serve_child.py"),
                str(spans), *args,
            ]
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        stderr_path = workdir / f"serve-{time.monotonic_ns()}.log"
        with open(stderr_path, "wb") as err:
            proc = subprocess.Popen(
                cmd, stdout=subprocess.DEVNULL, stderr=err,
                stdin=subprocess.DEVNULL, env=env, cwd=ROOT,
            )
        server = cls(proc, 0, stderr_path)
        try:
            # Boot on this process's CPU, which the set-up's speed probe
            # times; serve from ``cpu``.
            server.port = server._wait_for_banner()
            server._wait_healthy()
            server.pin(cpu)
        except BaseException:
            server.stop()
            raise
        return server

    def _wait_for_banner(self, timeout: float = 60.0) -> int:
        deadline = time.monotonic() + timeout
        marker = "on http://127.0.0.1:"
        while time.monotonic() < deadline:
            text = self.stderr_path.read_text(errors="replace")
            at = text.find(marker)
            if at >= 0 and "\n" in text[at:]:
                return int(text[at + len(marker):].split()[0])
            if self.proc.poll() is not None:
                raise RuntimeError(f"repro serve exited:\n{text}")
            time.sleep(0.01)
        raise TimeoutError("repro serve printed no banner")

    def _wait_healthy(self, timeout: float = 30.0) -> None:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            try:
                status, _ = self.get("/healthz")
                if status == 200:
                    return
            except OSError:
                pass
            time.sleep(0.005)
        raise TimeoutError("/healthz never answered 200")

    def get(self, path: str) -> tuple[int, bytes]:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=10)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def pin(self, cpu: int) -> None:
        """Move every thread of the server to ``cpu``."""
        for tid in os.listdir(f"/proc/{self.proc.pid}/task"):
            os.sched_setaffinity(int(tid), {cpu})

    def peak_rss_mb(self) -> float:
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for the server process")

    def signal(self, signum: int) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signum)

    def stop(self) -> None:
        """SIGTERM (graceful drain), then SIGKILL if it hangs."""
        self.signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


# ----------------------------------------------------------------------
# Queries
# ----------------------------------------------------------------------
def _plural(entity_type: str) -> str:
    return min(
        noun
        for noun, kind in lexicon.TYPE_NOUNS.items()
        if kind == entity_type
        and noun != entity_type
        and noun.startswith(entity_type[:3])
    )


def query_texts(table) -> list[str]:
    """Every grammar-valid 1-3-term query over the table's pairs."""
    by_type: dict[str, set[str]] = {}
    for key in table.keys():
        by_type.setdefault(key.entity_type, set()).add(key.property.text)
    texts = []
    for entity_type in sorted(by_type):
        noun = _plural(entity_type)
        properties = sorted(by_type[entity_type])
        for size in (1, 2, 3):
            for chosen in itertools.permutations(properties, size):
                for negated in itertools.product((False, True), repeat=size):
                    words = []
                    for prop, neg in zip(chosen, negated):
                        words += ["not", prop] if neg else [prop]
                    texts.append(" ".join([*words, noun]))
    for text in texts:
        SubjectiveQuery.parse(text)  # grammar-valid by construction
    return texts


class QueryMix:
    """Zipf-distributed query draws plus their response checks."""

    def __init__(self, table, rng: random.Random) -> None:
        self.texts = query_texts(table)
        # One popularity ranking for every seed, so each seed offers the
        # same mix of cheap and costly queries; ``rng`` draws the
        # request sequence.
        random.Random(RANKING_SEED).shuffle(self.texts)
        self.payloads = [
            loadgen.get_request("/query?q=" + quote_plus(text))
            for text in self.texts
        ]
        weights = [
            1.0 / (rank + 1) ** ZIPF_EXPONENT
            for rank in range(len(self.texts))
        ]
        self.cum_weights = list(itertools.accumulate(weights))
        self.rng = rng
        self.first_body: dict[int, bytes] = {}
        self.mismatches = 0

    def draw(self, count: int) -> list[int]:
        return self.rng.choices(
            range(len(self.texts)), cum_weights=self.cum_weights, k=count
        )

    def checker(self, qids: list[int]):
        """``on_body`` callback: every body of one query must match the
        first body seen for it."""
        first_body = self.first_body

        def on_body(i: int, body: bytes) -> None:
            qid = qids[i]
            first = first_body.get(qid)
            if first is None:
                first_body[qid] = body
            elif body != first:
                self.mismatches += 1

        return on_body

    def verify(self, table) -> int:
        """Distinct queries whose HTTP body differs from in-process
        ``OpinionService.ask`` (byte for byte)."""
        service = OpinionService(table)
        wrong = 0
        for qid, body in self.first_body.items():
            response, _cached = service.ask(self.texts[qid])
            if json.dumps(response, sort_keys=True).encode() != body:
                wrong += 1
        return wrong


def _latency_ms(result: loadgen.RunResult, indices) -> list[float]:
    return [
        result.latency[i] * 1e3 for i in indices if result.status[i] == 200
    ]


def _failures(result: loadgen.RunResult, indices) -> int:
    return sum(1 for i in indices if result.status[i] != 200)


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------
def _mine_table(seed: int, workdir: Path, lap):
    kb, corpus = worlds.template_world(worlds.world_seed(seed))
    lap()
    report = SurveyorPipeline(
        kb=kb, occurrence_threshold=worlds.OCCURRENCE_THRESHOLD
    ).run(corpus)
    path = save(report.opinions, workdir / "opinions.json")
    return report.opinions, path


def _setup_query_mix(
    seed: int, workdir: Path, cpu: int, spans: Path | None, lap
):
    table, path = _mine_table(seed, workdir, lap)
    lap()
    return table, path, Server.start(path, workdir, cpu, spans=spans)


def _setup_ingest(
    seed: int, workdir: Path, cpu: int, spans: Path | None, lap
):
    kb, corpus = worlds.template_world(worlds.world_seed(seed))
    lap()
    documents = list(corpus.documents)
    random.Random(f"held-out/{seed}").shuffle(documents)
    cut = int(len(documents) * (1 - HELD_OUT_SHARE))
    journal_dir = workdir / "journal"
    pipeline = IngestPipeline(
        kb=kb,
        journal=CorpusJournal(journal_dir),
        occurrence_threshold=worlds.OCCURRENCE_THRESHOLD,
    )
    report = pipeline.ingest(documents[:cut])
    path = pipeline.publish(report, workdir / "opinions.json")
    lap()
    server = Server.start(
        path, workdir, cpu,
        extra=[
            "--ingest-journal", str(journal_dir),
            "--ingest-threshold", str(worlds.OCCURRENCE_THRESHOLD),
        ],
        spans=spans,
    )
    return report.table, path, server, documents[cut:], journal_dir, kb


def repeated_setup(repeats: int, build, workdir_for):
    """Run ``build(workdir, lap)`` ``repeats`` times, where ``lap()``
    ends one stage of a set-up; keep the last result, stop the servers
    of the others, return (result, median scaled seconds)."""
    probe = speed.Probe()
    times = []
    result = None
    for k in range(repeats):
        if result is not None:
            result[2].stop()
        watch = speed.Stopwatch(probe)
        result = build(workdir_for(k), watch.lap)
        watch.lap()
        times.append(watch.seconds)
    return result, median(times)


# ----------------------------------------------------------------------
# Measurement
# ----------------------------------------------------------------------
@dataclass
class Tally:
    """Requests attempted and failed across every phase of a run."""

    attempted: int = 0
    failed: int = 0
    lags: list = field(default_factory=list)

    def add(self, result: loadgen.RunResult) -> loadgen.RunResult:
        self.attempted += len(result.dues)
        self.failed += _failures(result, range(len(result.dues)))
        self.lags += result.lag
        return result


def _query_phase(server, mix: QueryMix, rate: float, seconds: float, conns: int):
    qids = mix.draw(max(1, int(rate * seconds)))
    return loadgen.open_loop(
        ("127.0.0.1", server.port),
        [k / rate for k in range(len(qids))],
        [k % conns for k in range(len(qids))],
        [mix.payloads[q] for q in qids],
        connections=conns,
        on_body=mix.checker(qids),
        grace=10.0,
    )


def _slices(probe: speed.Probe, seconds: float, run_slice):
    """Run ``run_slice(duration)`` back to back for ``seconds`` in
    probe-bracketed slices; [(result, speed ratio)] per slice."""
    count = max(1, round(seconds / SLICE_SECONDS))
    out = []
    for _ in range(count):
        scaled = speed.Scaled(probe)
        result = run_slice(seconds / count)
        out.append((result, scaled.end()))
    return out


def _scaled_ms(slices) -> list[float]:
    """Latencies (ms) of every slice's requests, each scaled by its
    slice's speed ratio."""
    return [
        latency / ratio
        for result, ratio in slices
        for latency in _latency_ms(result, range(len(result.dues)))
    ]


def saturation(
    server, mix: QueryMix, conns: int, tally: Tally, probe: speed.Probe
) -> tuple[int, float]:
    """Offer more than can be served; (requests, seconds until the last
    answer, scaled to the reference CPU speed)."""
    scaled = speed.Scaled(probe)
    result = tally.add(
        _query_phase(server, mix, SATURATION_RATE, SATURATION_SECONDS, conns)
    )
    ratio = scaled.end()
    last = max(
        due + latency
        for due, latency, status in zip(
            result.dues, result.latency, result.status
        )
        if status == 200
    )
    return len(result.dues), last / ratio


def _cpu_seconds(pid: int) -> float:
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def _health(server) -> dict:
    status, body = server.get("/healthz")
    if status != 200:
        raise RuntimeError(f"/healthz answered {status}")
    return json.loads(body)


def _traced(server, run_phase):
    """Run ``run_phase()`` untraced, then again with recording on.

    Returns both results, the server's CPU seconds per request for
    each, and ``/healthz`` before and after the traced phase.
    """
    cpu = _cpu_seconds(server.proc.pid)
    plain = run_phase()
    cpu_plain = _cpu_seconds(server.proc.pid) - cpu
    before = _health(server)
    server.signal(signal.SIGUSR1)
    time.sleep(TOGGLE_SETTLE)
    cpu = _cpu_seconds(server.proc.pid)
    traced = run_phase()
    cpu_traced = _cpu_seconds(server.proc.pid) - cpu
    server.signal(signal.SIGUSR1)
    time.sleep(TOGGLE_SETTLE)
    after = _health(server)
    overhead = (cpu_traced / len(traced.dues)) / (
        cpu_plain / len(plain.dues)
    )
    return plain, traced, overhead, before, after


def _span_layers(prefix: Path, requests: int, before, after) -> dict:
    """Per-layer numbers of the traced phase, from the child's spans."""
    summary = json.loads(prefix.with_suffix(".json").read_text())
    layers: dict[str, float] = {}
    for layer, calls in summary["calls"].items():
        layers[f"{layer}.calls"] = calls
    for layer, seconds in summary["self_s"].items():
        layers[f"{layer}.self_s"] = seconds
    layers.update(summary["counters"])
    cache = {k: after["cache"][k] - before["cache"][k] for k in ("hits", "misses")}
    admission = {
        k: after["admission"][k] - before["admission"][k]
        for k in ("shed", "rate_limited")
    }
    layers.update({
        "serve.aio.requests": requests,
        "serve.aio.self_us_per_req": (
            summary["self_s"].get("serve.aio", 0.0) / max(requests, 1) * 1e6
        ),
        "serve.cache.hit_ratio": cache["hits"]
        / max(cache["hits"] + cache["misses"], 1),
        "serve.admission.queued": summary["counters"].get(
            "serve.admission.wait_calls", 0
        ),
        "serve.admission.wait_s": summary["counters"].get(
            "serve.admission.wait_s", 0.0
        ),
        "serve.admission.rejected": admission["shed"]
        + admission["rate_limited"],
        "core.em.fits": summary["calls"].get("core.em", 0),
        "trace.wall_s": summary["traced_wall_s"],
        "trace.unattributed_s": summary["unattributed_s"],
        "trace.spans": summary["spans"],
    })
    return layers


# ----------------------------------------------------------------------
# query_mix
# ----------------------------------------------------------------------
def query_mix(
    seed: int, seconds: float, trace: bool, workdir: Path, cpu: int,
    conns: int,
):
    tally = Tally()
    spans = workdir / "spans" if trace else None
    (table, _path, server), setup_s = repeated_setup(
        1 if trace else SETUP_REPEATS,
        lambda wd, lap: _setup_query_mix(seed, wd, cpu, spans, lap),
        lambda k: workdir / f"setup{k}",
    )
    gc.collect()
    gc.freeze()
    mix = QueryMix(table, random.Random(f"queries/{seed}"))
    metrics: dict[str, float] = {}
    probe = None
    try:
        probe = None if trace else speed.RemoteProbe(cpu)
        tally.add(_query_phase(server, mix, QUERY_RATE, WARMUP_SECONDS, conns))
        budget = max(seconds - WARMUP_SECONDS, 1.0)
        if trace:
            plain, traced, overhead, before, after = _traced(
                server,
                lambda: tally.add(
                    _query_phase(server, mix, QUERY_RATE, budget / 2, conns)
                ),
            )
            ceiling = loadgen.measure_ceiling(cpu, conns)
        else:
            fixed = _slices(
                probe,
                budget * FIXED_SHARE,
                lambda duration: tally.add(
                    _query_phase(server, mix, QUERY_RATE, duration, conns)
                ),
            )
            everything = _scaled_ms(fixed)
            deadline = time.perf_counter() + budget * (1 - FIXED_SHARE)
            probes = [saturation(server, mix, conns, tally, probe)]
            while (
                len(probes) < 2
                or time.perf_counter() + SATURATION_SECONDS * 6 < deadline
            ):
                probes.append(saturation(server, mix, conns, tally, probe))
            metrics = {
                "setup_s": setup_s,
                "query_p50_ms": loadgen.quantile(everything, 0.5),
                "query_p99_ms": loadgen.quantile(everything, 0.99),
                "ops_per_s": median(n / t for n, t in probes),
                "peak_rss_mb": server.peak_rss_mb(),
            }
    finally:
        if probe is not None:
            probe.close()
        server.stop()
    tally.failed += mix.mismatches + mix.verify(table)
    if trace:
        metrics = _span_layers(spans, len(traced.dues), before, after)
        metrics.update({
            "trace.overhead": overhead,
            "gen.ceiling_rps": ceiling,
        })
        metrics.update(_generator(tally, conns))
    notes = [
        f"distinct queries: {len(mix.texts)}, answered distinct: "
        f"{len(mix.first_body)}",
    ]
    if not trace:
        notes.append(
            "saturation probes (req/s): "
            + " ".join(f"{n / t:.0f}" for n, t in probes)
        )
    return metrics, tally.attempted, tally.failed, True, notes


def _generator(tally: Tally, conns: int) -> dict[str, float]:
    return {
        "gen.lag_p99_ms": loadgen.quantile(tally.lags, 0.99) * 1e3,
        "gen.sent": tally.attempted,
        "gen.connections": conns,
    }


# ----------------------------------------------------------------------
# ingest_live
# ----------------------------------------------------------------------
def _journal_bytes(journal_dir: Path) -> int:
    return sum(p.stat().st_size for p in journal_dir.glob("*.jrnl"))


def _ingest_phase(server, mix: QueryMix, batches, seconds: float, conns: int):
    """POST one batch every INGEST_INTERVAL on connection 0 while
    connection 1 reads at READ_RATE; returns (result, posts, reads)."""
    schedule = []
    for k in range(int(seconds / INGEST_INTERVAL)):
        batch = next(batches)
        body = json.dumps({
            "documents": [
                {"doc_id": d.doc_id, "text": d.text} for d in batch
            ]
        }).encode()
        schedule.append(
            (k * INGEST_INTERVAL, 0,
             loadgen.post_request("/admin/ingest", body), None)
        )
    qids = mix.draw(int(READ_RATE * seconds))
    for k, qid in enumerate(qids):
        schedule.append(
            (k / READ_RATE, conns - 1, mix.payloads[qid], qid)
        )
    schedule.sort(key=lambda item: item[0])
    posts = [i for i, item in enumerate(schedule) if item[3] is None]
    result = loadgen.open_loop(
        ("127.0.0.1", server.port),
        [item[0] for item in schedule],
        [item[1] for item in schedule],
        [item[2] for item in schedule],
        connections=conns,
        keep_body=set(posts),
        grace=30.0,
    )
    reads = [i for i, item in enumerate(schedule) if item[3] is not None]
    return result, posts, reads


def _post_outcomes(result, posts) -> tuple[int, int]:
    """(POSTs that did not publish a new table, dirty combinations)."""
    failed = dirty = 0
    for i in posts:
        if result.status[i] != 200:
            continue  # already counted as a non-200
        summary = json.loads(result.bodies[i])
        if summary["status"] != "ingested":
            failed += 1
        dirty += summary["dirty_combinations"]
    return failed, dirty


def ingest_live(
    seed: int, seconds: float, trace: bool, workdir: Path, cpu: int,
    conns: int,
):
    tally = Tally()
    spans = workdir / "spans" if trace else None
    (table, path, server, held_out, journal_dir, kb), setup_s = (
        repeated_setup(
            1 if trace else SETUP_REPEATS,
            lambda wd, lap: _setup_ingest(seed, wd, cpu, spans, lap),
            lambda k: workdir / f"setup{k}",
        )
    )
    gc.collect()
    gc.freeze()
    mix = QueryMix(table, random.Random(f"queries/{seed}"))
    batches = iter([
        held_out[k:k + INGEST_BATCH]
        for k in range(0, len(held_out), INGEST_BATCH)
    ])
    phases = []

    def run_phase(duration: float) -> loadgen.RunResult:
        journal_bytes = _journal_bytes(journal_dir)
        result, posts, reads = _ingest_phase(
            server, mix, batches, duration, conns
        )
        not_published, dirty = _post_outcomes(result, posts)
        tally.failed += not_published
        phases.append((result, posts, reads, dirty, journal_bytes))
        return tally.add(result)

    metrics: dict[str, float] = {}
    probe = None
    try:
        probe = None if trace else speed.RemoteProbe(cpu)
        if trace:
            _plain, traced, overhead, before, after = _traced(
                server, lambda: run_phase(seconds / 2)
            )
        else:
            ratios = [ratio for _result, ratio in _slices(
                probe, seconds, run_phase
            )]
            freshness, reads = [], []
            for (result, posts, gets, _d, _b), ratio in zip(phases, ratios):
                freshness += [ms / ratio for ms in _latency_ms(result, posts)]
                reads += [ms / ratio for ms in _latency_ms(result, gets)]
            freshness_p50_ms = loadgen.quantile(freshness, 0.5)
            metrics = {
                "setup_s": setup_s,
                "ops_per_s": INGEST_BATCH * 1e3 / freshness_p50_ms,
                "freshness_p50_ms": freshness_p50_ms,
                "freshness_p90_ms": loadgen.quantile(freshness, 0.9),
                "ingest_query_p99_ms": loadgen.quantile(reads, 0.99),
                "peak_rss_mb": server.peak_rss_mb(),
            }
        generation = _health(server)["generation"]
    finally:
        if probe is not None:
            probe.close()
        server.stop()
    documents = [
        record.document for record in CorpusJournal(journal_dir).replay()
    ]
    batch = SurveyorPipeline(
        kb=kb, occurrence_threshold=worlds.OCCURRENCE_THRESHOLD
    ).run(WebCorpus(documents=documents))
    correct = worlds.table_digest(load(path)) == worlds.table_digest(
        batch.opinions
    )
    if trace:
        _result, _posts, _reads, dirty, journal_bytes = phases[-1]
        metrics = _span_layers(spans, len(traced.dues), before, after)
        metrics.update(_generator(tally, conns))
        metrics.update({
            "trace.overhead": overhead,
            "ingest.journal.bytes": _journal_bytes(journal_dir)
            - journal_bytes,
            "ingest.dirty_combinations": dirty,
        })
    notes = [
        f"journal documents: {len(documents)}, live generation: "
        f"{generation}, live table equals batch run: {correct}",
    ]
    return metrics, tally.attempted, tally.failed, correct, notes
