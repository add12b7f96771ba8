"""The ``serve-warm`` and ``serve-churn`` workloads.

Both serve a NeOn shortlist registry (``genreg.neon_shortlist_registry``,
one 8x14 shape) from the HTTP service, started in a process of its own
by ``serve_boot.py``.  The load is a closed loop on two keep-alive
connections from this process: each connection sends its next request
only after the previous reply arrived, as API callers do.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import select
import subprocess
import sys
import threading
import time
from pathlib import Path
from statistics import median
from typing import Callable, Dict, List, Optional, Tuple

import measure
from measure import Outcome, peak_rss_mb, percentile

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPEATS = 5
MC_SIMULATIONS = 2000
VERBS = ("ranking", "montecarlo", "dominance", "rankintervals")
WINDOW_S = 1.0
#: Every request carries it; the server runs with bearer-token auth on.
AUTH_TOKEN = "perfbench-token"


class Server:
    """The service in its own process, driven through ``serve_boot.py``."""

    def __init__(self) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "serve_boot.py"), AUTH_TOKEN],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            env=env,
            cwd=str(ROOT),
        )
        self.port = 0
        try:
            line = self._readline()
            if line != "READY":
                raise RuntimeError(f"server process failed to start: {line!r}")
        except BaseException:
            self.close()
            raise

    def _readline(self, timeout: float = 60.0) -> str:
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        if not ready:
            raise RuntimeError("server did not answer within its timeout")
        return self.proc.stdout.readline().strip()

    def command(self, text: str) -> str:
        """Send one command; returns what follows ``OK`` in the answer."""
        self.proc.stdin.write(text + "\n")
        self.proc.stdin.flush()
        answer = self._readline()
        if answer.split(" ")[0] != "OK":
            raise RuntimeError(f"server answered {answer!r} to {text!r}")
        return answer[3:]

    def serve(self, registry: Path) -> None:
        """Serve ``registry`` (replacing the registry served so far)."""
        self.port = int(self.command(f"serve {registry}"))

    def close(self) -> None:
        """Stop gracefully; kill if it does not stop.  Always waits."""
        if self.proc.poll() is None:
            try:
                self.proc.stdin.write("stop\n")
                self.proc.stdin.flush()
                self.proc.wait(timeout=30)
            except (OSError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            try:
                stream.close()
            except OSError:
                pass


class Client:
    """One keep-alive connection, sending the bearer token unless told not to.

    It asks for the identity encoding (``http.client``'s default), so
    the service never gzips its replies.
    """

    def __init__(self, port: int, token: Optional[str] = AUTH_TOKEN) -> None:
        self.port = port
        self.auth = {"Authorization": f"Bearer {token}"} if token else {}
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)

    def get(self, target: str, headers: Optional[Dict[str, str]] = None):
        """(status, etag, body, seconds); a broken connection is reopened."""
        start = time.perf_counter()
        try:
            self.conn.request("GET", target, headers={**self.auth, **(headers or {})})
            response = self.conn.getresponse()
            body = response.read()
        except (OSError, http.client.HTTPException):
            self.conn.close()
            self.conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
            return 0, None, b"", time.perf_counter() - start
        return response.status, response.getheader("ETag"), body, time.perf_counter() - start

    def close(self) -> None:
        self.conn.close()


def url(ws: str, verb: str, seed: int) -> str:
    target = f"/v1/registries/default/workspaces/{ws}/{verb}"
    if verb == "montecarlo":
        target += f"?simulations={MC_SIMULATIONS}&seed={seed}"
    return target


class _Served:
    """Generated registry + running server + primed reference bodies.

    Set-up (timed ``SETUP_REPEATS`` times) is generating the registry,
    starting to serve it in the already running server process, and
    priming it.  The last registry is the one measured.
    """

    def __init__(self, seed: int, work: Path, n_workspaces: int, prime: Callable[[List[str]], List[Tuple[str, str]]]) -> None:
        from repro.core.genreg import neon_shortlist_registry

        self.seed = seed
        self.setup_s: List[float] = []
        self.server = Server()
        try:
            for k in range(SETUP_REPEATS):
                start = time.perf_counter()
                registry = work / f"registry{k}"
                registry.mkdir()
                files = neon_shortlist_registry(registry, n_workspaces=n_workspaces, seed=seed)
                measure.age_files(files)
                self.server.serve(registry)
                self.ids = sorted(p.stem for p in files)
                client = Client(self.server.port)
                self.refs: Dict[Tuple[str, str], Tuple[bytes, str]] = {}
                try:
                    for ws, verb in prime(self.ids):
                        status, etag, body, _ = client.get(url(ws, verb, seed))
                        if status != 200:
                            raise RuntimeError(f"priming {verb} of {ws} answered {status}")
                        self.refs[(ws, verb)] = (body, etag)
                finally:
                    client.close()
                self.setup_s.append(time.perf_counter() - start)
            # the auth gate is on: a request without the token is refused
            anonymous = Client(self.server.port, token=None)
            self.auth_status = anonymous.get(url(self.ids[0], "ranking", seed))[0]
            anonymous.close()
        except BaseException:
            self.server.close()
            raise
        self.registry = registry
        self.digest = measure.files_digest(files)
        self.docs = {p.stem: json.loads(p.read_text()) for p in files}

    def check_auth(self, out: Outcome) -> None:
        ok = self.auth_status == 401
        out.attempted += 1
        out.failed += not ok
        out.note(f"check: a request without the bearer token answered {self.auth_status} (expected 401)")

    def scrape_stages(self) -> Dict[str, List[float]]:
        client = Client(self.server.port)
        status, _, body, _ = client.get("/metrics?format=prometheus")
        client.close()
        if status != 200:
            raise RuntimeError(f"metrics scrape answered {status}")
        return measure.stage_totals(body.decode())


class _Loop:
    """Closed-loop connections run on threads, released together."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.latencies: Dict[str, List[float]] = {}
        self.done_at: Dict[str, List[float]] = {}
        self.failed = 0
        self.ops = 0
        self.spans: Dict[str, float] = {}
        self.start = 0.0

    def record(self, kind: str, seconds: float, ok: bool) -> None:
        with self.lock:
            self.latencies.setdefault(kind, []).append(seconds)
            self.done_at.setdefault(kind, []).append(time.perf_counter())
            self.ops += 1
            self.failed += not ok

    def windows(self, kind: str, width: float = WINDOW_S) -> List[Tuple[float, float, float]]:
        """(ops/s, p50, p90) of every whole ``width``-second window.

        The host is shared: interference comes in bursts of about a
        second, so medians over windows are steadier than totals.
        """
        buckets: Dict[int, List[float]] = {}
        for done, seconds in zip(self.done_at[kind], self.latencies[kind]):
            buckets.setdefault(int((done - self.start) / width), []).append(seconds)
        whole = int(max(self.spans.values()) / width)
        return [
            (len(buckets[k]) / width, median(buckets[k]), percentile(buckets[k], 90))
            for k in range(whole)
            if k in buckets
        ]

    def run(self, workers: Dict[str, Callable[[], None]]) -> float:
        barrier = threading.Barrier(len(workers) + 1)
        errors: List[BaseException] = []

        def body(name: str, fn: Callable[[], None]) -> None:
            barrier.wait()
            start = time.perf_counter()
            try:
                fn()
            except BaseException as exc:  # reported by the caller after join
                errors.append(exc)
            with self.lock:
                self.spans[name] = time.perf_counter() - start

        threads = [threading.Thread(target=body, args=item) for item in workers.items()]
        for thread in threads:
            thread.start()
        barrier.wait()
        self.start = time.perf_counter()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - self.start
        if errors:
            raise errors[0]
        return wall


def _until(deadline: Optional[float], count: int) -> Callable[[int], bool]:
    if deadline is None:
        return lambda done: done < count
    return lambda done: time.perf_counter() < deadline


# ----------------------------------------------------------------------
# serve-warm
# ----------------------------------------------------------------------

WARM_WORKSPACES = 48
WARM_TRACE_REQUESTS = 1500  # per connection, fixed for the traced phase


def _warm_phase(served: _Served, label: str, deadline: Optional[float]) -> Tuple[_Loop, float]:
    loop = _Loop()
    seed = served.seed

    def reader(tid: int) -> Callable[[], None]:
        def go() -> None:
            rng = random.Random(f"warm:{seed}:{label}:{tid}")
            client = Client(served.server.port)
            more = _until(deadline, WARM_TRACE_REQUESTS)
            done = 0
            while more(done):
                ws = rng.choice(served.ids)
                roll = rng.random()
                revalidate = roll >= 0.8
                verb = rng.choice(("ranking", "montecarlo")) if revalidate else ("ranking" if roll < 0.6 else "montecarlo")
                ref_body, etag = served.refs[(ws, verb)]
                headers = {"If-None-Match": etag} if revalidate else None
                status, _, body, dt = client.get(url(ws, verb, seed), headers)
                ok = (status == 304 and body == b"") if revalidate else (status == 200 and body == ref_body)
                loop.record("read", dt, ok)
                done += 1
            client.close()

        return go

    wall = loop.run({"reader0": reader(0), "reader1": reader(1)})
    return loop, wall


def run_warm(seed: int, seconds: float, trace: bool, work: Path) -> Outcome:
    out = Outcome()
    served = _Served(seed, work, WARM_WORKSPACES, lambda ids: [(ws, v) for ws in ids for v in ("ranking", "montecarlo")])
    out.note(
        f"inputs: neon_shortlist_registry seed={seed}, {WARM_WORKSPACES} workspaces,"
        f" registry sha256={served.digest}; {len(served.refs)} primed responses"
    )
    served.check_auth(out)
    try:
        if trace:
            return _traced(served, out, work, lambda label: _warm_phase(served, label, None))
        loop, wall = _warm_phase(served, "timed", time.perf_counter() + seconds)
    finally:
        served.server.close()
    reads = loop.latencies["read"]
    windows = loop.windows("read")
    out.attempted += loop.ops
    out.failed += loop.failed
    out.note(
        f"reads: {len(reads)} in {wall:.2f} s on 2 connections; over all reads read_rps {len(reads) / wall:.1f},"
        f" read_p50_ms {median(reads) * 1e3:.3f}, read_p99_ms {percentile(reads, 99) * 1e3:.3f}"
    )
    out.note(f"windows: {len(windows)} x {WINDOW_S:g} s; metrics are medians over windows")
    out.metrics = {
        "setup_s": (median(served.setup_s), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "throughput_per_s": (median([w[0] for w in windows]), "1/s"),
        "p50_ms": (median([w[1] for w in windows]) * 1e3, "ms"),
        "p90_ms": (median([w[2] for w in windows]) * 1e3, "ms"),
    }
    return out


# ----------------------------------------------------------------------
# serve-churn
# ----------------------------------------------------------------------

CHURN_WORKSPACES = 24
CHURN_TRACE_EDITS = 12
CHURN_TRACE_READS = 600
CHURN_SAMPLE = 3


def _halves(served: _Served) -> Tuple[List[str], List[str]]:
    ids = list(served.ids)
    random.Random(f"churn-split:{served.seed}").shuffle(ids)
    half = len(ids) // 2
    return sorted(ids[:half]), sorted(ids[half:])


def _churn_phase(served: _Served, label: str, deadline: Optional[float], edited: Dict[str, Dict[str, bytes]]):
    from repro.core import workspace

    loop = _Loop()
    seed = served.seed
    readers, editors = _halves(served)

    def editor() -> None:
        rng = random.Random(f"churn-edit:{seed}:{label}")
        client = Client(served.server.port)
        more = _until(deadline, CHURN_TRACE_EDITS)
        done = 0
        while more(done):
            ws = rng.choice(editors)
            problem = workspace.from_dict(measure.weight_edit(served.docs[ws], rng))
            expected = workspace.content_hash(problem)
            start = time.perf_counter()
            workspace.save(problem, served.registry / f"{ws}.json")
            replies = [client.get(url(ws, verb, seed)) for verb in VERBS]
            elapsed = time.perf_counter() - start
            ok = all(status == 200 for status, _, _, _ in replies)
            if ok:
                ok = all(json.loads(body).get("content_hash") == expected for _, _, body, _ in replies)
            if ok:  # the in-process check samples only edits answered in full
                edited[ws] = {verb: reply[2] for verb, reply in zip(VERBS, replies)}
            else:
                edited.pop(ws, None)
            loop.record("fresh", elapsed, ok)
            with loop.lock:
                loop.latencies.setdefault("request", []).extend(r[3] for r in replies)
            done += 1
        client.close()

    def reader() -> None:
        rng = random.Random(f"churn-read:{seed}:{label}")
        client = Client(served.server.port)
        more = _until(deadline, CHURN_TRACE_READS)
        done = 0
        while more(done):
            ws = rng.choice(readers)
            status, _, body, dt = client.get(url(ws, "ranking", seed))
            loop.record("read", dt, status == 200 and body == served.refs[(ws, "ranking")][0])
            with loop.lock:
                loop.latencies.setdefault("request", []).append(dt)
            done += 1
        client.close()

    wall = loop.run({"editor": editor, "reader": reader})
    return loop, wall


def _check_churn(served: _Served, edited: Dict[str, Dict[str, bytes]], out: Outcome) -> None:
    """Recompute dominance and rank intervals in-process on a sample."""
    from repro.core import workspace
    from repro.core.engine import BatchEvaluator, compile_problem

    pool = sorted(edited)
    sample = random.Random(f"churn-sample:{served.seed}").sample(pool, min(CHURN_SAMPLE, len(pool)))
    bad = 0
    for ws in sample:
        problem = workspace.load(served.registry / f"{ws}.json")
        evaluator = BatchEvaluator(compile_problem(problem))
        names = list(evaluator.alternative_names)
        matrix = evaluator.dominance_matrix()
        intervals = evaluator.rank_intervals()
        try:
            dominance = json.loads(edited[ws]["dominance"])
            ranks = json.loads(edited[ws]["rankintervals"])
            ok = (
                dominance["content_hash"] == workspace.content_hash(problem)
                and dominance["alternatives"] == names
                and dominance["matrix"] == [[bool(x) for x in row] for row in matrix]
                and ranks["intervals"]
                == [{"name": n, "best": intervals[n].best, "worst": intervals[n].worst} for n in names]
            )
        except (ValueError, KeyError, TypeError):  # not the body of a success reply
            ok = False
        bad += not ok
    out.attempted += len(sample)
    out.failed += bad
    out.note(f"check: {len(sample) - bad}/{len(sample)} sampled edits match BatchEvaluator run in-process")


def run_churn(seed: int, seconds: float, trace: bool, work: Path) -> Outcome:
    out = Outcome()
    served = _Served(seed, work, CHURN_WORKSPACES, lambda ids: [(ws, "ranking") for ws in ids])
    out.note(
        f"inputs: neon_shortlist_registry seed={seed}, {CHURN_WORKSPACES} workspaces"
        f" (half edited, half read), registry sha256={served.digest}"
    )
    served.check_auth(out)
    edited: Dict[str, Dict[str, bytes]] = {}
    try:
        if trace:
            _traced(served, out, work, lambda label: _churn_phase(served, label, None, edited))
        else:
            loop, wall = _churn_phase(served, "timed", time.perf_counter() + seconds, edited)
    finally:
        served.server.close()
    _check_churn(served, edited, out)
    if trace:
        return out
    reads, fresh = loop.latencies["read"], loop.latencies["fresh"]
    read_wall = loop.spans["reader"]
    windows = loop.windows("read")
    out.attempted += loop.ops
    out.failed += loop.failed
    out.note(
        f"editor: {len(fresh)} edits, fresh_p50_ms {median(fresh) * 1e3:.1f}, fresh_p90_ms {percentile(fresh, 90) * 1e3:.1f}"
    )
    out.note(
        f"reader: {len(reads)} reads; over all reads read_rps {len(reads) / read_wall:.1f},"
        f" read_p50_ms {median(reads) * 1e3:.3f}, read_p99_ms {percentile(reads, 99) * 1e3:.3f};"
        f" throughput_per_s is the median over {len(windows)} windows of {WINDOW_S:g} s"
    )
    out.metrics = {
        "setup_s": (median(served.setup_s), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "throughput_per_s": (median([w[0] for w in windows]), "1/s"),
        "p50_ms": (median(fresh) * 1e3, "ms"),
        "p90_ms": (percentile(fresh, 90) * 1e3, "ms"),
    }
    return out


# ----------------------------------------------------------------------
# Traced runs (fixed work, so counts repeat exactly)
# ----------------------------------------------------------------------

def _traced(served: _Served, out: Outcome, work: Path, phase) -> Outcome:
    import layers

    loops = [phase("warm-up")[0]]  # untraced: lazy imports and first connections
    trace_dir = work / "trace"
    trace_dir.mkdir()
    walls: Dict[bool, List[float]] = {False: [], True: []}
    dumps: List[dict] = []
    program: Dict[str, List[float]] = {}
    client_ms = 0.0
    for traced in measure.alternating():
        label = f"{'traced' if traced else 'untraced'}-{len(walls[traced])}"
        if not traced:
            loop, wall = phase(label)
        else:
            before = served.scrape_stages()
            dump = trace_dir / f"server-{len(dumps)}.json"
            served.server.command(f"trace-on {trace_dir}")
            loop, wall = phase(label)
            served.server.command(f"trace-off {dump}")
            dumps.append(json.loads(dump.read_text()))
            measure.add_stages(program, measure.stage_delta(before, served.scrape_stages()))
            client_ms += sum(loop.latencies.get("request", loop.latencies.get("read", []))) * 1e3
        walls[traced].append(wall)
        loops.append(loop)
    totals = layers.merge(dumps + layers.worker_snapshots(trace_dir))
    handle_ms = totals["stats"].get("service.handle", [0, 0.0, 0.0])[1] * 1e3
    out.metrics = layers.layer_metrics(totals, client_ms - handle_ms, measure.overhead_pct(walls[False], walls[True]))
    out.attempted += sum(loop.ops for loop in loops)
    out.failed += sum(loop.failed for loop in loops)
    out.note(
        f"trace: {measure.TRACE_PAIRS} traced phases of fixed work;"
        f" untraced {', '.join(f'{w:.3f}' for w in walls[False])} s,"
        f" traced {', '.join(f'{w:.3f}' for w in walls[True])} s"
    )
    out.note(layers.attribution(totals))
    fresh = [loop.latencies["fresh"] for loop in loops[1:] if "fresh" in loop.latencies]
    if fresh:
        fresh_ms = median([x for xs in fresh for x in xs]) * 1e3
        n_edits = sum(len(xs) for xs in fresh) // 2  # traced phases are half of the measured ones
        per_edit = (out.metrics["engine.dominance.ms"][0] + out.metrics["engine.rankintervals.ms"][0]) / n_edits
        out.note(
            f"trace: fresh_p50_ms {fresh_ms:.1f}; engine.dominance.ms + engine.rankintervals.ms"
            f" per traced edit {per_edit:.1f} ms = {per_edit / fresh_ms * 100:.0f}% of it"
        )
    out.lines.extend(measure.cross_check(program, layers.stage_equivalents(totals), "server", workers_gap=False))
    return out
