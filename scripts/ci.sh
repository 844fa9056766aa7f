#!/usr/bin/env bash
# CI entry point: the fast, deterministic tier-1 lane, the
# fault-injection suite, the observability artefact check, the
# serving/ingest lanes, the benches with in-bench gates, and the paired
# performance lane (this commit against its parent; needs HEAD^).
#
# Usage: scripts/ci.sh
#
# Fault-injection tests use fixed seeds (see tests/test_resilience.py),
# so all lanes are reproducible run to run. Tests marked "slow" are
# excluded from the first lane and exercised with the resilience suite;
# tests marked "trace" stay in the first lane (they are quick) but the
# marker lets a dev run just the observability surface with
# `pytest -m trace`.
set -euo pipefail

cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== tier-1 (fast, no slow-marked tests) =="
python -m pytest -x -q -m "not slow"

echo "== fault-injection suite (fixed seeds, includes slow tests) =="
python -m pytest -q tests/test_resilience.py

echo "== observability artefacts (trace schema + declared metric names) =="
OBS_DIR="$(mktemp -d)"
trap 'rm -rf "$OBS_DIR"' EXIT
python -m repro demo \
    --trace "$OBS_DIR/trace.jsonl" \
    --metrics-out "$OBS_DIR/metrics.json" > /dev/null
# stats --validate exits 2 on schema violations or metric names
# missing from repro.obs.metrics.CATALOG
python -m repro stats "$OBS_DIR/trace.jsonl" \
    --metrics "$OBS_DIR/metrics.json" --validate > /dev/null
# Per-document histograms are observed only for a run with a registry:
# the demo's must count every document it mined (its document spans).
python - "$OBS_DIR/trace.jsonl" "$OBS_DIR/metrics.json" <<'PY'
import json, sys
from repro.obs import read_trace
mined = sum(span["kind"] == "document" for span in read_trace(sys.argv[1]))
with open(sys.argv[2]) as handle:
    metrics = json.load(handle)["metrics"]
observed = metrics["repro_document_seconds"]["count"]
counted = metrics["repro_documents_total"]["value"]
if not mined or not observed == counted == mined:
    sys.exit(f"repro_document_seconds count {observed}, "
             f"repro_documents_total {counted}, document spans {mined}")
PY
# An artefact of the wrong kind or with non-UTF-8 bytes is one
# "repro: error:" line and exit 2 (exit 1 means "ran fine, found
# nothing"), never a traceback.
printf 'Kittens are cute.\n' > "$OBS_DIR/docs.txt"
python -m repro mine "$OBS_DIR/docs.txt" \
    --out "$OBS_DIR/opinions.json" --threshold 1 > /dev/null 2>&1
python -c 'import sys
from repro.kb.seeds import evaluation_kb
from repro.storage import save
save(evaluation_kb(), sys.argv[1])' "$OBS_DIR/kb.json"
printf '{"format": "caf\351"}' > "$OBS_DIR/latin1.json"
expect_exit_2() {
    local status=0
    python -m repro "$@" > /dev/null 2> "$OBS_DIR/err.txt" || status=$?
    if [ "$status" -ne 2 ] || grep -q Traceback "$OBS_DIR/err.txt"; then
        echo "repro $*: expected exit 2 and no traceback, got $status" >&2
        cat "$OBS_DIR/err.txt" >&2
        exit 1
    fi
}
for artefact in kb.json latin1.json; do
    expect_exit_2 query "$OBS_DIR/$artefact" cute animal
    expect_exit_2 diff "$OBS_DIR/opinions.json" "$OBS_DIR/$artefact"
done
expect_exit_2 stats "$OBS_DIR/trace.jsonl" \
    --convergence "$OBS_DIR/opinions.json"
# Text modes answer through the HTTP routes, so input a route rejects
# is one "repro <cmd>:" line and exit 2 in either mode.
expect_exit_2 query "$OBS_DIR/opinions.json" ' ' animal
expect_exit_2 ask "$OBS_DIR/opinions.json" 'cute animals' --top 0
expect_exit_2 calibrate "$OBS_DIR/opinions.json" ' ' animal population
expect_exit_2 mine "$OBS_DIR/docs.txt" --out "$OBS_DIR/unused.json" \
    --threshold 0
# An ingest journal takes one writer: with --workers 2 it is refused
# before the journal is opened or any worker is forked, whether the
# path is a regular file or a fresh directory (left empty).
expect_exit_2 serve "$OBS_DIR/opinions.json" --port 0 --workers 2 \
    --ingest-journal "$OBS_DIR/docs.txt"
mkdir "$OBS_DIR/journal-w2"
expect_exit_2 serve "$OBS_DIR/opinions.json" --port 0 --workers 2 \
    --ingest-journal "$OBS_DIR/journal-w2"
[ -z "$(ls -A "$OBS_DIR/journal-w2")" ]
# So is every worker's access log in a directory that does not exist.
for workers in 1 2; do
    expect_exit_2 serve "$OBS_DIR/opinions.json" --port 0 \
        --workers "$workers" --access-log "$OBS_DIR/missing/a.log"
done

echo "== in-bench gates (scale, serving, overhead budgets, provenance) =="
# Each bench asserts relative figures measured in its own process:
# fast/reference extraction CPU >= 1.8x, extraction > 5x EM, the EM
# stage against a fixed reference loop, the HTTP 8x floor and p99
# ceiling, the 0.95 serving-overhead and provenance floors, and the
# tracing overhead budgets. Absolute throughput and RSS are the paired
# perfbench lane's job (last lane below).
python -m pytest -q -p no:cacheprovider \
    benchmarks/bench_sec71_pipeline_scale.py \
    benchmarks/bench_serving.py \
    benchmarks/bench_obs_overhead.py \
    benchmarks/bench_provenance.py > /dev/null

echo "== strict-parity smoke (fast path vs reference, bit-identical) =="
# Runs the mining pipeline with the extraction fast path verifying
# every document and shard against the reference path; any divergence
# raises ParityError and fails the run (see docs/performance.md).
PARITY_DIR="$(mktemp -d)"
trap 'rm -rf "$OBS_DIR" "$PARITY_DIR"' EXIT
printf '%s\n' \
    "Kittens are cute. They are fluffy animals." \
    "I think that kittens are cute." \
    "The kitten is a cute animal. It is small." \
    "Tigers are not cute. The weather was nice." \
    "Tigers are dangerous animals. Nothing to see here." > \
    "$PARITY_DIR/docs.txt"
# Every run maps the same two shards: lineage samples are kept in shard
# order, so the provenance sidecar is comparable only at one shard count.
python -m repro mine "$PARITY_DIR/docs.txt" \
    --out "$PARITY_DIR/opinions.json" --threshold 1 \
    --strict --strict-parity --workers 2 > /dev/null
# The same smoke through the process executor: shards mapped in worker
# processes must give the serial run's bytes.
python -m repro mine "$PARITY_DIR/docs.txt" \
    --out "$PARITY_DIR/opinions-process.json" --threshold 1 \
    --strict --strict-parity --executor process --workers 2 > /dev/null
# And so must a rerun resumed from the shard checkpoints a first run
# wrote, whose lineage rows are reloaded for their samples only.
for run in first resumed; do
    python -m repro mine "$PARITY_DIR/docs.txt" \
        --out "$PARITY_DIR/opinions-$run.json" --threshold 1 \
        --strict --strict-parity --workers 2 \
        --checkpoint-dir "$PARITY_DIR/ckpt" 2> "$PARITY_DIR/$run.err" \
        > /dev/null
done
grep "checkpoints: resumed=2 written=0" "$PARITY_DIR/resumed.err" > /dev/null
# Each run's table and its provenance sidecar match the serial run's.
for run in process first resumed; do
    cmp "$PARITY_DIR/opinions.json" "$PARITY_DIR/opinions-$run.json"
    cmp "$PARITY_DIR/opinions.json.provenance.json" \
        "$PARITY_DIR/opinions-$run.json.provenance.json"
done

echo "== reference parity on both mining worlds (stored digests) =="
# The smoke above compares two paths built from the same code, so a bug
# they share (in a word table, say) would pass it. perfbench checks each
# run's opinion table against perfbench/digests.json, the digests of the
# reference path's tables stored with the worlds; "correct" is false on
# any mismatch.
for workload in mine_template mine_longtail; do
    python3 perfbench/run.py --workload "$workload" --seed 7 \
        --seconds 1 --trace 0 | tail -n 1 | python3 -c '
import json, sys
result = json.loads(sys.stdin.read())
if result["correct"] is not True or result["failed"] != 0:
    sys.exit(f"reference parity failed: {result}")
'
done

# The same check under the process executor: shards mined in worker
# processes (each with its own annotation memo) must reduce to the
# serial reference table.
python3 - <<'PYEOF'
import sys

sys.path.insert(0, "perfbench")
import worlds  # noqa: E402
from repro.pipeline import SurveyorPipeline  # noqa: E402

kb, corpus = worlds.WORLDS["mine_longtail"](worlds.world_seed(7))
report = SurveyorPipeline(
    kb=kb,
    occurrence_threshold=worlds.OCCURRENCE_THRESHOLD,
    executor="process",
    n_workers=2,
).run(corpus)
if worlds.table_digest(report.opinions) != worlds.stored_digest(
    "mine_longtail", 7
):
    sys.exit("reference parity failed under the process executor")

# Strict parity on the long-tail world with a small memo: every
# document is checked against the reference path, across pronoun pairs
# and tens of thousands of memo evictions.
report = SurveyorPipeline(
    kb=kb,
    occurrence_threshold=worlds.OCCURRENCE_THRESHOLD,
    strict_parity=True,
    annotation_memo_size=64,
).run(corpus)
if worlds.table_digest(report.opinions) != worlds.stored_digest(
    "mine_longtail", 7
):
    sys.exit("strict parity run diverged from the reference digest")
PYEOF

echo "== serve lane (async core smoke: boot, query, observability, reload, shutdown) =="
# `repro serve` defaults to the asyncio event-loop core, so this lane
# exercises the async single-worker server end to end.
SERVE_DIR="$(mktemp -d)"
trap 'rm -rf "$OBS_DIR" "$PARITY_DIR" "$SERVE_DIR"' EXIT
printf '%s\n' \
    "Kittens are cute." \
    "I think that kittens are cute." \
    "The kitten is a cute animal." \
    "Tigers are not cute." \
    "Tigers are dangerous animals." > "$SERVE_DIR/docs.txt"
python -m repro mine "$SERVE_DIR/docs.txt" \
    --out "$SERVE_DIR/opinions.json" --threshold 1 > /dev/null 2>&1
python - "$SERVE_DIR/opinions.json" <<'PYEOF'
import json, signal, subprocess, sys, time, urllib.request

opinions = sys.argv[1]
access_log = opinions + ".access.jsonl"
proc = subprocess.Popen(
    [sys.executable, "-m", "repro", "serve", opinions, "--port", "0",
     "--access-log", access_log],
    stderr=subprocess.PIPE, text=True,
)
try:
    # The lineage-sidecar notice (if any) precedes the serving banner.
    for _ in range(5):
        banner = proc.stderr.readline()
        if "repro serve: serving" in banner:
            break
    assert "repro serve: serving" in banner, banner
    port = int(banner.rsplit(":", 1)[1])
    base = f"http://127.0.0.1:{port}"

    def get(path):
        with urllib.request.urlopen(base + path, timeout=10) as r:
            return r.status, r.read()

    deadline = time.monotonic() + 10
    while True:
        try:
            status, body = get("/healthz")
            break
        except OSError:
            if time.monotonic() > deadline:
                raise
            time.sleep(0.05)
    assert status == 200 and json.loads(body)["generation"] == 1

    status, body = get("/query?q=cute+animals")
    assert status == 200, body
    hits = json.loads(body)["hits"]
    assert hits and hits[0]["entity"] == "/animal/kitten", hits

    # Multi-term and negated answers come off the index's posterior
    # columns; their bytes must be the reference engine's, rendered.
    from urllib.parse import quote_plus
    from repro.core.query import QueryEngine, SubjectiveQuery
    from repro.serve import OpinionIndex
    from repro.serve.schema import ask_response, render
    from repro.storage import load

    table = load(opinions)
    for text in ("not cute animals", "cute dangerous animals",
                 "dangerous not cute animals",
                 "not cute not dangerous animals",
                 "very cute not green animals"):
        query = SubjectiveQuery.parse(text)
        for top in (1, 10):
            status, body = get(f"/query?q={quote_plus(text)}&top={top}")
            assert status == 200, body
            expected = render(ask_response(
                query, QueryEngine(table).answer(query, top),
                OpinionIndex(table),
            ))
            assert body == expected, (text, top, body, expected)

    # Answer provenance: /explain joins the posterior with the
    # lineage sidecar `repro mine` wrote next to the table, and the
    # CLI renders the very same payload byte for byte.
    status, body = get("/explain?entity=/animal/kitten&property=cute")
    assert status == 200, body
    explain = json.loads(body)
    assert explain["format"] == "serve_explain", explain
    assert explain["lineage"]["available"] is True, explain
    assert explain["lineage"]["samples"], explain
    cli = subprocess.run(
        [sys.executable, "-m", "repro", "explain", opinions,
         "/animal/kitten", "cute", "--format", "json"],
        capture_output=True, text=True, timeout=60,
    )
    assert cli.returncode == 0, cli.stderr
    assert cli.stdout.strip() == body.decode().strip(), (
        "repro explain and GET /explain disagree",
        cli.stdout, body,
    )

    req = urllib.request.Request(
        base + "/batch",
        data=json.dumps({"queries": ["cute animals"]}).encode(),
        method="POST",
    )
    with urllib.request.urlopen(req, timeout=10) as r:
        batch_id = r.headers["X-Request-Id"]
        results = json.loads(r.read())["results"]
    assert results[0]["hits"], results
    # Every batch item is stamped with the envelope's request id so
    # sub-answers join the batch's access-log line.
    assert batch_id and all(
        item["request_id"] == batch_id for item in results
    ), results

    status, body = get("/metrics")
    assert b"repro_serve_requests_total" in body

    # Golden-schema check of the whole observability surface:
    # histogram exposition with exemplars on /metrics, SLO burn
    # rates and the latency window on /healthz.
    from repro.obs import validate_serve_observability

    health = json.loads(get("/healthz")[1])
    problems = validate_serve_observability(health, body.decode())
    assert not problems, problems

    # The live console renders a one-shot frame against the server.
    top = subprocess.run(
        [sys.executable, "-m", "repro", "top", "--url", base,
         "--once"],
        capture_output=True, text=True, timeout=30,
    )
    assert top.returncode == 0, top.stderr
    for needle in ("repro top", "qps", "p99", "burn"):
        assert needle in top.stdout, (needle, top.stdout)

    req = urllib.request.Request(
        base + "/admin/reload", data=b"{}", method="POST"
    )
    with urllib.request.urlopen(req, timeout=10) as r:
        reloaded = json.loads(r.read())
    assert reloaded["generation"] == 2, reloaded
    # Every snapshot swap emits a drift report: the reload response
    # carries its summary, /metrics grows the generation gauges, and
    # /healthz keeps the last report. Same artefact -> zero flips.
    assert reloaded["drift"]["flips"] == 0, reloaded
    status, body = get("/metrics")
    for gauge in (b"repro_serve_generation_flips",
                  b"repro_serve_generation_flip_fraction",
                  b"repro_serve_generation_pairs_added",
                  b"repro_serve_generation_entity_churn"):
        assert gauge in body, (gauge, body)
    health = json.loads(get("/healthz")[1])
    assert health["drift"]["trigger"] == "reload", health

    proc.send_signal(signal.SIGHUP)
    deadline = time.monotonic() + 10
    while json.loads(get("/healthz")[1])["generation"] != 3:
        assert time.monotonic() < deadline, "SIGHUP reload missing"
        time.sleep(0.05)

    # The offline drift CLI runs the same comparison the reloads just
    # did; a table diffed against itself reports zero flips (exit 0).
    diff = subprocess.run(
        [sys.executable, "-m", "repro", "diff", opinions, opinions,
         "--format", "json"],
        capture_output=True, text=True, timeout=60,
    )
    assert diff.returncode == 0, diff.stderr
    drift = json.loads(diff.stdout)
    assert drift["format"] == "generation_drift", drift
    assert drift["flips"] == 0 and drift["common"] > 0, drift

    proc.terminate()
    stderr = proc.communicate(timeout=10)[1]
    assert proc.returncode == 0, (proc.returncode, stderr)
    assert "shut down cleanly" in stderr, stderr

    # The drain closed the access log: every line parses and the
    # request ids echoed to clients all have a matching record.
    from repro.serve import read_access_log

    records = list(read_access_log(access_log))
    assert records, "access log is empty after the serve lane"
    assert any(r["path"] == "/query" and r["status"] == 200
               for r in records), records
    # One line per batch, carrying the sub-query count and the id the
    # response items echoed.
    batch_lines = [r for r in records if r["path"] == "/batch"]
    assert len(batch_lines) == 1, batch_lines
    assert batch_lines[0].get("items") == 1, batch_lines
    assert batch_lines[0]["request_id"] == batch_id, batch_lines
finally:
    if proc.poll() is None:
        proc.kill()
        proc.wait(timeout=10)
print("serve lane OK")
PYEOF

echo "== admission lane (async core sheds 429/503 instead of queueing) =="
# Overload must be refused explicitly: a client over its token-bucket
# budget gets 429 with a Retry-After hint, requests beyond the
# in-flight limit get 503 overloaded — and /healthz stays ungated
# through both.
python - "$SERVE_DIR/opinions.json" <<'PYEOF'
import json, subprocess, sys, threading, time, urllib.error, urllib.request

opinions = sys.argv[1]


def boot(extra):
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", opinions,
         "--port", "0", *extra],
        stderr=subprocess.PIPE, text=True,
    )
    for _ in range(5):
        banner = proc.stderr.readline()
        if "repro serve: serving" in banner:
            break
    assert "repro serve: serving" in banner, banner
    return proc, int(banner.rsplit(":", 1)[1])


def get(port, path, headers=None):
    req = urllib.request.Request(
        f"http://127.0.0.1:{port}" + path, headers=headers or {}
    )
    try:
        with urllib.request.urlopen(req, timeout=10) as r:
            return r.status, dict(r.headers), r.read()
    except urllib.error.HTTPError as e:
        return e.code, dict(e.headers), e.read()


def drain(proc):
    proc.terminate()
    stderr = proc.communicate(timeout=15)[1]
    assert proc.returncode == 0, (proc.returncode, stderr)
    assert "shut down cleanly" in stderr, stderr


# --- 429: per-client budget of 2, third request is rate-limited ---
proc, port = boot(["--client-rate", "0.001", "--client-burst", "2"])
try:
    headers = {"X-Client-Id": "ci-chatty"}
    codes = [get(port, "/query?q=cute+animals", headers)[0]
             for _ in range(3)]
    assert codes == [200, 200, 429], codes
    status, resp_headers, body = get(
        port, "/query?q=cute+animals", headers
    )
    assert status == 429, (status, body)
    envelope = json.loads(body)
    assert envelope["code"] == "rate_limited", envelope
    assert int(resp_headers["Retry-After"]) >= 1, resp_headers
    # The exhausted client can still probe health.
    assert get(port, "/healthz", headers)[0] == 200
    drain(proc)
finally:
    if proc.poll() is None:
        proc.kill()
        proc.wait(timeout=10)

# --- 503: one slot, no queue, every request slowed 400 ms ---
proc, port = boot([
    "--max-inflight", "1", "--queue-depth", "0",
    "--request-deadline-ms", "5000",
    "--fault-inject", "slow_every=1,slow_ms=400,seed=0",
])
try:
    results = []

    def fire():
        results.append(get(port, "/query?q=cute+animals"))

    first = threading.Thread(target=fire)
    first.start()
    time.sleep(0.1)  # let the slow request occupy the only slot
    status, _, body = get(port, "/query?q=cute+animals")
    assert status == 503, (status, body)
    assert json.loads(body)["code"] == "overloaded", body
    # Probes bypass admission even while the slot is held.
    assert get(port, "/healthz")[0] == 200
    first.join(timeout=10)
    assert results and results[0][0] == 200, results
    drain(proc)
finally:
    if proc.poll() is None:
        proc.kill()
        proc.wait(timeout=10)
print("admission lane OK")
PYEOF

echo "== multi-worker lane (--workers 2, SO_REUSEPORT, coherent swap + merged metrics) =="
# Two forked asyncio workers share the listen port; /admin/reload on
# whichever worker answers must swap every sibling (epoch file +
# SIGUSR1 -> parent SIGHUP broadcast), operator SIGHUP swaps the
# fleet, and /metrics merges all workers' registries.
python - "$SERVE_DIR/opinions.json" <<'PYEOF'
import json, re, signal, subprocess, sys, time, urllib.error, urllib.request

opinions = sys.argv[1]
proc = subprocess.Popen(
    [sys.executable, "-m", "repro", "serve", opinions, "--port", "0",
     "--workers", "2"],
    stderr=subprocess.PIPE, text=True,
)
try:
    for _ in range(5):
        banner = proc.stderr.readline()
        if "repro serve: serving" in banner:
            break
    assert "repro serve: serving" in banner, banner
    port = int(banner.rsplit(":", 1)[1])
    base = f"http://127.0.0.1:{port}"

    def get(path):
        with urllib.request.urlopen(base + path, timeout=10) as r:
            return r.status, r.read()

    def generations(probes=20):
        return {
            json.loads(get("/healthz")[1])["generation"]
            for _ in range(probes)
        }

    def await_generation(expected):
        deadline = time.monotonic() + 10
        while generations() != {expected}:
            assert time.monotonic() < deadline, (
                f"workers did not converge on generation {expected}"
            )
            time.sleep(0.1)

    assert get("/healthz")[0] == 200
    status, body = get("/query?q=cute+animals")
    assert status == 200, body
    assert json.loads(body)["hits"], body
    req = urllib.request.Request(
        base + "/batch",
        data=json.dumps({"queries": ["cute animals"]}).encode(),
        method="POST",
    )
    with urllib.request.urlopen(req, timeout=10) as r:
        assert json.loads(r.read())["results"][0]["hits"]

    # Spread some load, give the periodic snapshot dump a beat, then
    # check the scrape merges both workers' counters.
    sent = 20
    for _ in range(sent):
        get("/query?q=cute+animals")
    time.sleep(1.0)
    exposition = get("/metrics")[1].decode()
    assert "repro_serve_workers 2" in exposition, exposition[:400]
    match = re.search(
        r"^repro_serve_requests_total (\d+)", exposition, re.M
    )
    assert match and int(match.group(1)) >= sent, (
        "merged requests_total missing the fleet's traffic",
        match and match.group(0),
    )

    # HTTP reload on one worker swaps every worker.
    req = urllib.request.Request(
        base + "/admin/reload", data=b"{}", method="POST"
    )
    with urllib.request.urlopen(req, timeout=10) as r:
        assert json.loads(r.read())["generation"] == 2
    await_generation(2)

    # Operator SIGHUP to the parent swaps the whole fleet again.
    proc.send_signal(signal.SIGHUP)
    await_generation(3)

    started = time.monotonic()
    proc.terminate()
    stderr = proc.communicate(timeout=15)[1]
    elapsed = time.monotonic() - started
    assert proc.returncode == 0, (proc.returncode, stderr)
    assert "shut down cleanly" in stderr, stderr
    assert elapsed < 10, f"drain took {elapsed:.1f}s"
finally:
    if proc.poll() is None:
        proc.kill()
        proc.wait(timeout=10)
print("multi-worker lane OK")
PYEOF

echo "== chaos lane (fault injection on the async core: corrupt reload -> degraded -> rollback -> healthy) =="
# Boots the server with a fault injector that corrupts every reload,
# then walks the incident lifecycle end to end: the bad artefact is
# quarantined, queries keep answering from the last good snapshot with
# degraded_mode stamped, and one rollback returns the service to
# healthy. See docs/robustness.md, "Serving resilience".
python - "$SERVE_DIR/opinions.json" <<'PYEOF'
import json, subprocess, sys, time, urllib.error, urllib.request

opinions = sys.argv[1]
proc = subprocess.Popen(
    [sys.executable, "-m", "repro", "serve", opinions, "--port", "0",
     "--fault-inject", "corrupt_every=1,corrupt_mode=corrupt,seed=0"],
    stderr=subprocess.PIPE, text=True,
)
try:
    # The lineage-sidecar notice (if any) precedes the serving banner.
    for _ in range(5):
        banner = proc.stderr.readline()
        if "repro serve: serving" in banner:
            break
    assert "repro serve: serving" in banner, banner
    port = int(banner.rsplit(":", 1)[1])
    base = f"http://127.0.0.1:{port}"

    def call(path, method="GET", data=None):
        req = urllib.request.Request(
            base + path, data=data, method=method
        )
        try:
            with urllib.request.urlopen(req, timeout=10) as r:
                return r.status, json.loads(r.read())
        except urllib.error.HTTPError as error:
            return error.code, json.loads(error.read())

    deadline = time.monotonic() + 10
    while True:
        try:
            status, health = call("/healthz")
            break
        except OSError:
            if time.monotonic() > deadline:
                raise
            time.sleep(0.05)
    assert health["status"] == "healthy", health

    # Every reload is corrupted: the swap must be refused with a
    # structured error envelope and the artefact quarantined.
    status, body = call("/admin/reload", method="POST", data=b"{}")
    assert status == 500 and body["code"] == "reload_failed", body
    status, health = call("/healthz")
    assert health["status"] == "degraded", health
    assert health["quarantine"], health

    # Degraded serving: still correct answers, visibly stamped.
    status, body = call("/query?q=cute+animals")
    assert status == 200 and body["degraded_mode"] is True, body
    assert body["hits"][0]["entity"] == "/animal/kitten", body

    # One rollback clears the incident.
    status, body = call("/admin/rollback", method="POST", data=b"{}")
    assert status == 200, body
    status, health = call("/healthz")
    assert health["status"] == "healthy", health
    status, body = call("/query?q=cute+animals")
    assert status == 200 and body["degraded_mode"] is False, body

    proc.terminate()
    stderr = proc.communicate(timeout=10)[1]
    assert proc.returncode == 0, (proc.returncode, stderr)
    assert "serve.reload_failed" in stderr, stderr
finally:
    if proc.poll() is None:
        proc.kill()
        proc.wait(timeout=10)
print("chaos lane OK")
PYEOF

# Goodput under injected faults (bench_serve_chaos gates it: goodput
# >= 80%, recovery to healthy after rollback).
python -m pytest -q -p no:cacheprovider \
    benchmarks/bench_serve_chaos.py > /dev/null

echo "== ingest lane (journal bootstrap, live append, hot publish) =="
# Streaming ingestion end to end (docs/ingestion.md): journal-first
# bootstrap with `repro ingest`, a live POST /admin/ingest whose new
# answer must be served as soon as the call returns, a second
# CLI-journal publish picked up by /admin/reload (which must re-read
# the rewritten provenance sidecar), a restart on the same journal
# that must come back at the same generation with the same answers, and
# the restarted server's next publishes, a SIGKILL and a boot that must
# replay back to the last published generation, and a drain whose
# state.json, sidecar and opinions.json must be the bytes a cold
# pipeline encodes for the same state (the last publish carries a clean
# combination's opinions from the one before).
INGEST_DIR="$(mktemp -d)"
trap 'rm -rf "$OBS_DIR" "$PARITY_DIR" "$SERVE_DIR" "$INGEST_DIR"' EXIT
printf '%s\n' \
    "Kittens are cute." \
    "I think that kittens are cute." \
    "The kitten is a cute animal." > "$INGEST_DIR/bootstrap.txt"
printf '%s\n' \
    "Spiders are not cute." \
    "I doubt that spiders are cute." > "$INGEST_DIR/later.txt"
python -m repro ingest "$INGEST_DIR/bootstrap.txt" \
    --journal "$INGEST_DIR/journal" \
    --out "$INGEST_DIR/opinions.json" --threshold 1 > /dev/null
python - "$INGEST_DIR" <<'PYEOF'
import json, subprocess, sys, time, urllib.request

ingest_dir = sys.argv[1]
opinions = f"{ingest_dir}/opinions.json"


def boot():
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", opinions,
         "--port", "0",
         "--ingest-journal", f"{ingest_dir}/journal",
         "--ingest-threshold", "1"],
        stderr=subprocess.PIPE, text=True,
    )
    for _ in range(5):
        banner = proc.stderr.readline()
        if "repro serve: serving" in banner:
            break
    assert "repro serve: serving" in banner, banner
    port = int(banner.rsplit(":", 1)[1])
    base = f"http://127.0.0.1:{port}"
    deadline = time.monotonic() + 10
    while True:
        try:
            urllib.request.urlopen(base + "/healthz", timeout=10).close()
            return proc, base
        except OSError:
            if time.monotonic() > deadline:
                raise
            time.sleep(0.05)


proc, base = boot()
try:
    def raw(path):
        with urllib.request.urlopen(base + path, timeout=10) as r:
            return r.read()

    def get(path):
        with urllib.request.urlopen(base + path, timeout=10) as r:
            return r.status, json.loads(r.read())

    def post(path, payload):
        req = urllib.request.Request(
            base + path, data=json.dumps(payload).encode(),
            method="POST",
        )
        with urllib.request.urlopen(req, timeout=60) as r:
            return r.status, json.loads(r.read())

    status, health = get("/healthz")
    assert health["generation"] == 1, health

    # Live append: the moment the POST returns, the refitted answer
    # must already be served (the response reports the end-to-end
    # journal -> extract -> refit -> swap freshness).
    status, summary = post("/admin/ingest", {"documents": [
        "Tigers are dangerous animals.",
        "I believe that tigers are dangerous.",
    ]})
    assert status == 200 and summary["status"] == "ingested", summary
    assert summary["generation"] == 2, summary
    assert summary["freshness_seconds"] < 5.0, summary
    status, body = get("/query?q=dangerous+animals")
    assert status == 200, body
    assert body["generation"] == 2, body
    assert any(
        hit["entity"] == "/animal/tiger" for hit in body["hits"]
    ), body

    # The swap surfaced as ingest-triggered drift and the ingest
    # gauges moved.
    status, health = get("/healthz")
    assert health["drift"]["trigger"] == "ingest", health
    with urllib.request.urlopen(base + "/metrics", timeout=10) as r:
        metrics = r.read().decode()
    for needle in ("repro_ingest_documents_total 2",
                   "repro_ingest_journal_offset",
                   "repro_ingest_freshness_seconds_bucket"):
        assert needle in metrics, (needle, metrics)

    # Second publish path: `repro ingest` appends to the same journal
    # from another process and rewrites the artefacts; a plain file
    # reload must pick up the new generation AND re-read the
    # rewritten lineage sidecar (stat-signature cache invalidation).
    cli = subprocess.run(
        [sys.executable, "-m", "repro", "ingest",
         f"{ingest_dir}/later.txt",
         "--journal", f"{ingest_dir}/journal",
         "--out", opinions, "--threshold", "1"],
        capture_output=True, text=True, timeout=120,
    )
    assert cli.returncode == 0, cli.stderr
    status, reloaded = post("/admin/reload", {})
    assert reloaded["generation"] == 3, reloaded
    status, explain = get(
        "/explain?entity=/animal/spider&property=cute"
    )
    assert status == 200, explain
    assert explain["lineage"]["available"] is True, explain
    assert explain["polarity"] == "-", explain
    before = {
        path: raw(path)
        for path in ("/query?q=dangerous+animals",
                     "/explain?entity=/animal/spider&property=cute")
    }

    proc.terminate()
    stderr = proc.communicate(timeout=10)[1]
    assert proc.returncode == 0, (proc.returncode, stderr)

    # Restart on the same journal: the server must come back from the
    # state.json and artefacts the ingests wrote, at the same
    # generation and with the same answers.
    proc, base = boot()
    status, health = get("/healthz")
    assert health["generation"] == 3, health
    for path, body in before.items():
        assert raw(path) == body, (path, body, raw(path))
    # Two batches, the second touching pairs the first one's publish
    # already encoded (kittens from the journal, snakes from batch one)
    # and leaving dangerous|animal clean, so its block is carried.
    for generation, documents in (
        (4, ["Snakes are not cute."]),
        (5, ["Kittens are cute.", "I doubt that snakes are cute."]),
    ):
        status, summary = post("/admin/ingest", {"documents": documents})
        assert status == 200, summary
        assert summary["generation"] == generation, summary

    # A kill skips the drain's checkpoint: the next boot replays the
    # journal above state.json and must come back at the generation
    # the last publish recorded, with the same answers.
    before = {path: raw(path) for path in before}
    proc.kill()
    proc.wait(timeout=10)
    proc, base = boot()
    status, health = get("/healthz")
    assert health["generation"] == 5, health
    for path, body in before.items():
        assert raw(path) == body, (path, body, raw(path))

    proc.terminate()
    stderr = proc.communicate(timeout=10)[1]
    assert proc.returncode == 0, (proc.returncode, stderr)
finally:
    if proc.poll() is None:
        proc.kill()
        proc.wait(timeout=10)
PYEOF
# Re-encode what the live server wrote through a cold pipeline: opened
# on a copy of the journal, advanced over nothing new, so it has no
# previous result to carry from and no ledger text to splice.
cp -r "$INGEST_DIR/journal" "$INGEST_DIR/cold-journal"
python - "$INGEST_DIR" <<'PYEOF'
import sys
from repro.ingest import CorpusJournal, IngestPipeline
from repro.kb.seeds import evaluation_kb

ingest_dir = sys.argv[1]
cold = IngestPipeline(
    kb=evaluation_kb(),
    journal=CorpusJournal(f"{ingest_dir}/cold-journal"),
    occurrence_threshold=1,
)
report = cold.advance()
assert report.documents == 0 and report.generation == 5, report
# Re-encode the decoded state: an advance over nothing writes no
# checkpoint, and cmp would compare the copied file with itself.
cold.checkpoint()
cold.publish(report, f"{ingest_dir}/cold-opinions.json")
PYEOF
cmp "$INGEST_DIR/journal/state.json" "$INGEST_DIR/cold-journal/state.json"
cmp "$INGEST_DIR/opinions.json.provenance.json" \
    "$INGEST_DIR/cold-opinions.json.provenance.json"
cmp "$INGEST_DIR/opinions.json" "$INGEST_DIR/cold-opinions.json"
# A single-process server whose journal `repro ingest` appended to
# between two POSTs reopens it for the second one instead of refusing
# the append.
mkdir "$INGEST_DIR/shared"
python -m repro ingest "$INGEST_DIR/bootstrap.txt" \
    --journal "$INGEST_DIR/shared/journal" \
    --out "$INGEST_DIR/shared/opinions.json" --threshold 1 > /dev/null
python - "$INGEST_DIR" <<'PYEOF'
import json, subprocess, sys, urllib.request

ingest_dir = sys.argv[1]
shared = f"{ingest_dir}/shared"
proc = subprocess.Popen(
    [sys.executable, "-m", "repro", "serve", f"{shared}/opinions.json",
     "--port", "0", "--ingest-journal", f"{shared}/journal",
     "--ingest-threshold", "1"],
    stderr=subprocess.PIPE, text=True,
)
try:
    for _ in range(5):
        banner = proc.stderr.readline()
        if "repro serve: serving" in banner:
            break
    assert "repro serve: serving" in banner, banner
    base = "http://127.0.0.1:" + banner.rsplit(":", 1)[1].strip()

    def post(documents):
        req = urllib.request.Request(
            base + "/admin/ingest",
            data=json.dumps({"documents": documents}).encode(),
            method="POST",
        )
        with urllib.request.urlopen(req, timeout=60) as r:
            return r.status, json.loads(r.read())

    status, summary = post(["Tigers are dangerous animals."])
    assert status == 200 and summary["generation"] == 2, summary
    cli = subprocess.run(
        [sys.executable, "-m", "repro", "ingest",
         f"{ingest_dir}/later.txt", "--journal", f"{shared}/journal",
         "--out", f"{shared}/opinions.json", "--threshold", "1"],
        capture_output=True, text=True, timeout=120,
    )
    assert cli.returncode == 0, cli.stderr
    status, summary = post(["Snakes are not cute."])
    assert status == 200 and summary["generation"] == 4, summary
    proc.terminate()
    stderr = proc.communicate(timeout=10)[1]
    assert proc.returncode == 0, (proc.returncode, stderr)
finally:
    if proc.poll() is None:
        proc.kill()
        proc.wait(timeout=10)
PYEOF
echo "ingest lane OK"

# Ingestion benches carry their own gates (incremental CPU <= 25% of a
# full re-run on a 10% append; ingest -> servable p50 under a second).
python -m pytest -q -p no:cacheprovider \
    benchmarks/bench_ingest.py > /dev/null

echo "== paired perfbench lane (this commit vs HEAD^, every workload) =="
# Runs every BENCHMARK.json workload on this checkout and on its parent
# commit (a temporary git worktree with this checkout's perfbench/),
# same seeds, alternating order; fails on correct false, a higher
# failed share, or a median worse than its metric's bound. A clone
# without HEAD^ fails here: fetch with depth >= 2.
python3 scripts/perf_lane.py

echo "CI OK"
