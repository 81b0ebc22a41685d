"""Closed-loop load generator for the repro.serving HTTP layer.

Drives ``POST /v1/query`` with ``--clients`` concurrent paced workers
targeting ``--target-qps`` aggregate, measures the end-to-end latency
distribution and prints it as JSON. perfbench's ``serve-http``
workload is the serving path's benchmark; this generator checks the
serving invariants.

Modes::

    # Against a running server:
    PYTHONPATH=src python benchmarks/load_gen.py \\
        --url http://127.0.0.1:8000 --clients 8 --duration 5 \\
        --target-qps 200

    # Self-booting (spawns `python -m repro.serving`, waits for
    # /healthz, loads, then SIGINTs and asserts a clean drain):
    PYTHONPATH=src python benchmarks/load_gen.py --boot \\
        --server-args "--n 10000 --m 3" --clients 8 --requests 400

    # CI smoke: low qps, exercises query + cursor paging + explain +
    # healthz + metrics, asserts invariants (identical answers across
    # clients, non-zero metrics, clean drain):
    PYTHONPATH=src python benchmarks/load_gen.py --boot --smoke \\
        --clients 4 --requests 120 --target-qps 60

Closed-loop means every client waits for its response before issuing
the next request (pacing sleeps keep the aggregate near the target
rate); overload therefore shows up as latency, and shed responses
(503) are counted, not retried — the back-off signal is the result.

Stdlib only (urllib + threads): the generator must run anywhere the
server does, including the Docker image and CI.
"""

from __future__ import annotations

import argparse
import json
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request

DEFAULT_TIMEOUT_S = 30.0

#: Histogram bucket upper bounds, ms (doubling; +inf overflow implicit).
HISTOGRAM_BOUNDS_MS = tuple(0.25 * (2.0 ** i) for i in range(16))


# ----------------------------------------------------------------------
# HTTP plumbing
# ----------------------------------------------------------------------


def http_json(
    url: str,
    payload: dict | None = None,
    method: str | None = None,
    timeout: float = DEFAULT_TIMEOUT_S,
) -> tuple[int, dict]:
    """(status, parsed JSON body); error statuses are returned, not raised."""
    data = None if payload is None else json.dumps(payload).encode()
    request = urllib.request.Request(
        url,
        data=data,
        method=method or ("POST" if data is not None else "GET"),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        body = exc.read()
        try:
            return exc.code, json.loads(body)
        except ValueError:
            return exc.code, {"raw": body.decode("latin-1", "replace")}


# ----------------------------------------------------------------------
# The closed loop
# ----------------------------------------------------------------------


class LoadStats:
    """Thread-safe accumulation of one run's observations."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.latencies_ms: list[float] = []
        self.by_status: dict[int, int] = {}
        self.answer_signatures: set[str] = set()
        self.errors: list[str] = []
        self.partial = 0
        self.uncertified = 0

    def record(
        self, status: int, latency_ms: float, body: dict | None
    ) -> None:
        signature = None
        partial = False
        uncertified = False
        if status == 200 and body is not None and "items" in body:
            partial = body.get("partial") is True
            if partial:
                # A certified prefix's length depends on where the
                # deadline landed, so partial answers are legitimately
                # run-to-run different — but each must carry its
                # guarantee block. They stay out of the determinism
                # check and are counted (and gated) separately.
                uncertified = body.get("guarantee") is None
            else:
                signature = json.dumps(body["items"], sort_keys=True)
        with self._lock:
            self.latencies_ms.append(latency_ms)
            self.by_status[status] = self.by_status.get(status, 0) + 1
            if partial:
                self.partial += 1
            if uncertified:
                self.uncertified += 1
            if signature is not None:
                self.answer_signatures.add(signature)

    def error(self, message: str) -> None:
        with self._lock:
            self.errors.append(message)

    @property
    def total(self) -> int:
        return sum(self.by_status.values())


def percentile(sorted_values: list[float], q: float) -> float | None:
    if not sorted_values:
        return None
    rank = max(1, -(-int(q * len(sorted_values)) // 100))  # nearest rank
    return sorted_values[rank - 1]


def histogram(latencies: list[float]) -> dict[str, int]:
    counts = [0] * (len(HISTOGRAM_BOUNDS_MS) + 1)
    for latency in latencies:
        for i, bound in enumerate(HISTOGRAM_BOUNDS_MS):
            if latency <= bound:
                counts[i] += 1
                break
        else:
            counts[-1] += 1
    labels = [f"<={bound:g}ms" for bound in HISTOGRAM_BOUNDS_MS] + ["+inf"]
    return {
        label: count for label, count in zip(labels, counts) if count
    }


def run_load(args, payload: dict) -> tuple[LoadStats, float]:
    """The closed loop itself; returns (stats, wall seconds)."""
    stats = LoadStats()
    stop_at = time.monotonic() + args.duration if args.requests is None else None
    budget = threading.Semaphore(args.requests) if args.requests is not None else None
    interval = (
        args.clients / args.target_qps if args.target_qps else 0.0
    )
    url = f"{args.url}/v1/query"

    def worker(worker_index: int) -> None:
        # Stagger starts so clients do not phase-lock on the server.
        next_at = time.monotonic() + interval * worker_index / max(args.clients, 1)
        while True:
            if stop_at is not None and time.monotonic() >= stop_at:
                return
            if budget is not None and not budget.acquire(blocking=False):
                return
            if interval:
                delay = next_at - time.monotonic()
                if delay > 0:
                    time.sleep(delay)
                next_at += interval
            started = time.perf_counter()
            try:
                status, body = http_json(url, payload, timeout=args.timeout_s)
            except Exception as exc:  # noqa: BLE001 - network boundary
                stats.error(f"client {worker_index}: {type(exc).__name__}: {exc}")
                continue
            stats.record(status, (time.perf_counter() - started) * 1e3, body)

    started = time.perf_counter()
    threads = [
        threading.Thread(target=worker, args=(i,), daemon=True)
        for i in range(args.clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return stats, time.perf_counter() - started


# ----------------------------------------------------------------------
# Smoke checks (the CI serving job's assertions)
# ----------------------------------------------------------------------


def smoke_check(args, payload: dict, failures: list[str]) -> dict:
    """Exercise every endpoint once and assert the serving invariants."""
    exercised: dict[str, object] = {}

    status, health = http_json(f"{args.url}/healthz")
    exercised["healthz"] = status
    if status != 200 or health.get("status") != "ok":
        failures.append(f"healthz unhealthy: {status} {health}")

    # Cursor lifecycle: open, page to completion (bounded), close.
    cursor_spec = dict(payload)
    cursor_spec.pop("k", None)
    cursor_spec["page_size"] = 25
    status, opened = http_json(f"{args.url}/v1/cursor", cursor_spec)
    exercised["cursor_open"] = status
    if status != 201:
        failures.append(f"cursor open failed: {status} {opened}")
    else:
        cursor_id = opened["cursor_id"]
        seen: set[str] = set()
        pages = 0
        done = False
        for _ in range(400):  # hard cap: a broken 'done' must not hang CI
            status, page = http_json(
                f"{args.url}/v1/cursor/{cursor_id}/next"
            )
            if (
                status == 400
                and "cursor" in page.get("error", {}).get("message", "")
            ):
                # Some plans (e.g. the filtered-conjunct strategy on
                # catalog backings) legitimately refuse incremental
                # cursors; the invariant is the structured 400, not
                # paging itself.
                exercised["cursor_unsupported"] = True
                done = True
                break
            if status != 200:
                failures.append(f"cursor next failed: {status} {page}")
                break
            pages += 1
            for item in page["items"]:
                key = json.dumps(item["obj"], default=str)
                if key in seen:
                    failures.append(
                        f"cursor returned duplicate object {item['obj']!r}"
                    )
                seen.add(key)
            if page["done"]:
                done = True
                break
        if not done:
            failures.append("cursor never reported done")
        exercised["cursor_pages"] = pages
        exercised["cursor_answers"] = len(seen)
        status, closed = http_json(
            f"{args.url}/v1/cursor/{cursor_id}", method="DELETE"
        )
        if status != 200:
            failures.append(f"cursor close failed: {status} {closed}")
        status, gone = http_json(f"{args.url}/v1/cursor/{cursor_id}/next")
        if status != 404:
            failures.append(f"closed cursor still pageable: {status}")

    # Explain: a strategy description on catalog backings, a clean
    # structured 400 on source backings — never a 500.
    if "query" in payload:
        status, explain = http_json(
            f"{args.url}/v1/explain?query="
            + urllib.request.quote(payload["query"])
        )
        exercised["explain"] = status
        if status != 200 or not explain.get("explain"):
            failures.append(f"explain failed: {status} {explain}")
    else:
        status, explain = http_json(f"{args.url}/v1/explain?query=x")
        exercised["explain"] = status
        if status != 400 or "error" not in explain:
            failures.append(
                f"explain on source backing should 400-envelope, "
                f"got {status} {explain}"
            )

    # Deadline: an unmeetable deadline must 504 and leave the engine
    # healthy for the very next request.
    deadline_spec = dict(payload)
    deadline_spec["deadline_ms"] = 1
    status, timed_out = http_json(f"{args.url}/v1/query", deadline_spec)
    exercised["deadline"] = status
    if status not in (504, 200):  # a very fast store may beat 1 ms
        failures.append(f"deadline_ms=1 gave {status} {timed_out}")
    elif status == 504 and timed_out["error"]["code"] != "deadline_exceeded":
        failures.append(f"504 without deadline_exceeded code: {timed_out}")
    status, after = http_json(f"{args.url}/v1/query", payload)
    if status != 200:
        failures.append(f"engine unhealthy after deadline: {status} {after}")

    # Certified partial answers: the same unmeetable deadline with
    # allow_partial must come back 200 with a guarantee block whenever
    # any page landed (504 stays legal when none did, and on backings
    # without the anytime cursor path), and never a 5xx.
    partial_spec = dict(payload)
    partial_spec["deadline_ms"] = 1
    partial_spec["allow_partial"] = True
    status, partial = http_json(f"{args.url}/v1/query", partial_spec)
    exercised["allow_partial"] = status
    if status not in (200, 504):
        failures.append(f"allow_partial deadline gave {status} {partial}")
    elif status == 200:
        guarantee = partial.get("guarantee")
        if guarantee is None:
            failures.append(f"partial 200 without guarantee: {partial}")
        elif partial.get("partial") is True:
            if guarantee.get("kind") != "anytime" or "bounds" not in partial:
                failures.append(
                    f"partial answer lacks anytime certificate: {partial}"
                )
            exercised["partial_answers"] = len(partial.get("items", []))
    status, after = http_json(f"{args.url}/v1/query", payload)
    if status != 200:
        failures.append(f"engine unhealthy after partial: {status} {after}")

    # allow_partial under a deadline the query meets: a complete 200 on
    # every backing, whether the plan pages through the anytime cursor
    # or not. Cursor pages may resolve grade ties to another valid
    # answer set, so the grades are compared as a multiset.
    roomy_spec = dict(payload)
    roomy_spec["deadline_ms"] = 30_000
    roomy_spec["allow_partial"] = True
    status, roomy = http_json(f"{args.url}/v1/query", roomy_spec)
    exercised["allow_partial_roomy"] = status
    if status != 200 or roomy.get("partial"):
        failures.append(f"allow_partial, 30 s deadline gave {status} {roomy}")
    elif "items" in after and sorted(
        item["grade"] for item in roomy["items"]
    ) != sorted(item["grade"] for item in after["items"]):
        failures.append(
            f"allow_partial answer {roomy['items']} differs from the "
            f"plain answer {after['items']}"
        )

    status, metrics = http_json(f"{args.url}/metrics")
    exercised["metrics"] = status
    if status != 200:
        failures.append(f"metrics failed: {status}")
    else:
        server = metrics["server"]
        engine = metrics["engine"]
        if not server["requests_total"] or not server["qps"]:
            failures.append(f"metrics report zero traffic: {server}")
        if server["latency"]["p50_ms"] is None or server["latency"]["p99_ms"] is None:
            failures.append("metrics missing latency percentiles")
        if engine["access"]["total"] <= 0:
            failures.append(f"metrics report zero engine accesses: {engine}")
        exercised["server_qps"] = server["qps"]
    return exercised


# ----------------------------------------------------------------------
# Server boot (self-contained smoke / bench runs)
# ----------------------------------------------------------------------


def free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def boot_server(args) -> subprocess.Popen:
    port = free_port()
    command = [
        sys.executable, "-m", "repro.serving",
        "--host", "127.0.0.1", "--port", str(port),
    ] + (args.server_args.split() if args.server_args else [])
    process = subprocess.Popen(
        command,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    args.url = f"http://127.0.0.1:{port}"
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        if process.poll() is not None:
            output = process.stdout.read() if process.stdout else ""
            raise SystemExit(f"server exited during boot:\n{output}")
        try:
            status, _ = http_json(f"{args.url}/healthz", timeout=2.0)
            if status == 200:
                return process
        except Exception:  # noqa: BLE001 - not accepting yet
            pass
        time.sleep(0.05)
    process.kill()
    raise SystemExit("server did not become healthy within 30 s")


def stop_server(process: subprocess.Popen, failures: list[str]) -> None:
    """SIGINT, then assert the drain was clean (exit 0, drain log line)."""
    process.send_signal(signal.SIGINT)
    try:
        process.wait(timeout=30.0)
    except subprocess.TimeoutExpired:
        process.kill()
        failures.append("server did not drain within 30 s of SIGINT")
        return
    output = process.stdout.read() if process.stdout else ""
    if process.returncode != 0:
        failures.append(
            f"server exited {process.returncode} on SIGINT:\n{output}"
        )
    if "drained" not in output:
        failures.append(f"no drain summary in server output:\n{output}")


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--url", default="http://127.0.0.1:8000")
    parser.add_argument("--clients", type=int, default=8)
    parser.add_argument(
        "--duration", type=float, default=5.0,
        help="seconds of load (ignored when --requests is given)",
    )
    parser.add_argument(
        "--requests", type=int, default=None,
        help="total request budget instead of a duration",
    )
    parser.add_argument(
        "--target-qps", type=float, default=None,
        help="aggregate pacing target; omit for as-fast-as-possible",
    )
    parser.add_argument("--k", type=int, default=10)
    parser.add_argument(
        "--aggregation", default="min",
        help="named aggregation for source-backed servers",
    )
    parser.add_argument(
        "--query", default=None,
        help="query string for catalog-backed servers (overrides "
        "--aggregation)",
    )
    parser.add_argument(
        "--deadline-ms", type=float, default=None,
        help="per-request deadline_ms field (exercises the deadline path)",
    )
    parser.add_argument(
        "--allow-partial", action="store_true",
        help="set allow_partial so deadline expiries return certified "
        "prefixes (200 + guarantee block) instead of 504",
    )
    parser.add_argument("--timeout-s", type=float, default=DEFAULT_TIMEOUT_S)
    parser.add_argument(
        "--smoke", action="store_true",
        help="exercise cursor/explain/healthz/metrics and assert invariants",
    )
    parser.add_argument(
        "--boot", action="store_true",
        help="spawn `python -m repro.serving` first, drain it after",
    )
    parser.add_argument(
        "--server-args", default="",
        help="extra arguments for the booted server (with --boot)",
    )
    parser.add_argument(
        "--allow-shed", action="store_true",
        help="tolerate 503s in the run (overload experiments)",
    )
    args = parser.parse_args(argv)

    payload: dict = {"k": args.k}
    if args.query:
        payload["query"] = args.query
    else:
        payload["aggregation"] = args.aggregation
    if args.deadline_ms is not None:
        payload["deadline_ms"] = args.deadline_ms
    if args.allow_partial:
        payload["allow_partial"] = True

    failures: list[str] = []
    process = boot_server(args) if args.boot else None
    try:
        stats, wall_s = run_load(args, payload)
        exercised = smoke_check(args, payload, failures) if args.smoke else {}
        status, metrics = http_json(f"{args.url}/metrics")
        server_metrics = metrics if status == 200 else {}
    finally:
        if process is not None:
            stop_server(process, failures)

    latencies = sorted(stats.latencies_ms)
    ok = stats.by_status.get(200, 0)
    shed = stats.by_status.get(503, 0)
    report = {
        "clients": args.clients,
        "target_qps": args.target_qps,
        "requests": stats.total,
        "ok": ok,
        "shed": shed,
        "by_status": {str(k): v for k, v in sorted(stats.by_status.items())},
        "wall_s": round(wall_s, 3),
        "achieved_qps": round(stats.total / wall_s, 1) if wall_s else 0.0,
        "latency_ms": {
            "p50": round(percentile(latencies, 50), 3) if latencies else None,
            "p90": round(percentile(latencies, 90), 3) if latencies else None,
            "p99": round(percentile(latencies, 99), 3) if latencies else None,
            "mean": round(statistics.fmean(latencies), 3) if latencies else None,
            "max": round(latencies[-1], 3) if latencies else None,
        },
        "histogram": histogram(latencies),
        "distinct_answers": len(stats.answer_signatures),
        "partial": stats.partial,
        "deadline_ms": args.deadline_ms,
        "allow_partial": args.allow_partial,
    }
    if server_metrics:
        engine = server_metrics.get("engine", {})
        report["server"] = {
            "qps": server_metrics.get("server", {}).get("qps"),
            "p99_ms": server_metrics.get("server", {})
            .get("latency", {})
            .get("p99_ms"),
            "shed_total": server_metrics.get("server", {}).get("shed_total"),
            "engine_queries": engine.get("queries"),
            "engine_accesses": engine.get("access", {}).get("total"),
            "cache_hits": engine.get("cache_totals", {}).get("hits"),
        }
    if exercised:
        report["smoke"] = exercised

    print(json.dumps(report, indent=2))

    # Invariants of every run (smoke or bench): the server answered,
    # deterministically, and nothing failed server-side.
    if stats.errors:
        failures.extend(stats.errors[:5])
    if ok == 0:
        failures.append("no successful responses at all")
    if len(stats.answer_signatures) > 1:
        failures.append(
            f"non-deterministic answers: {len(stats.answer_signatures)} "
            "distinct top-k payloads for one fixed query"
        )
    if stats.uncertified:
        failures.append(
            f"{stats.uncertified} partial responses arrived without a "
            "guarantee block"
        )
    server_errors = sum(
        count
        for status_code, count in stats.by_status.items()
        if status_code >= 500 and status_code not in (503, 504)
    )
    if server_errors:
        failures.append(f"{server_errors} 5xx responses")
    if shed and not args.allow_shed:
        failures.append(
            f"{shed} requests shed (503) — raise capacity or pass "
            "--allow-shed for overload experiments"
        )

    if failures:
        print("\nLOAD GEN FAILURES:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
