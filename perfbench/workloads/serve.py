"""``serve``: a closed loop of two keep-alive clients against the service.

The server is ``repro.serve`` in its own process (through
``perfbench/serve_launcher.py``) over a store in the run directory.  Set-up
starts it and sends the first, cold request for each of the nine
deterministic quick targets, then warms the loop.  A cycle is a fixed
schedule of requests: a seeded mix of GET ``/v1/report/<target>?quick=1``
and POST ``/v1/report`` over the targets, each target equally often, with
every 50th request a ``/metrics`` scrape.  Two connections each send their
next request as soon as their previous reply has arrived.  Every cycle
repeats the same schedule, so the service's sample count grows the same
way in every run.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import os
import random
import re
import signal
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

from perfbench.harness import HERE, BenchError
from perfbench.stats import OpLedger
from perfbench.workloads.base import Workload

CONNECTIONS = 2
#: requests per cycle; every SCRAPE_EVERY-th is a /metrics scrape
CYCLE_REQUESTS = 1000
SCRAPE_EVERY = 50
WARMUP_REQUESTS = 200
START_TIMEOUT_S = 60.0
REQUEST_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0

_COUNTER = re.compile(r'^(serve_[a-z_]+_total)(\{[^}]*\})? (\S+)$')


def parse_counters(text: str) -> dict[str, float]:
    """Sum Prometheus counters by name, and requests by cache label."""
    out: dict[str, float] = {}
    for line in text.splitlines():
        m = _COUNTER.match(line)
        if not m:
            continue
        name, labels, value = m.group(1), m.group(2) or "", float(m.group(3))
        out[name] = out.get(name, 0.0) + value
        if name == "serve_requests_total":
            cache = re.search(r'cache="([^"]+)"', labels)
            if cache:
                key = f"requests.{cache.group(1)}"
                out[key] = out.get(key, 0.0) + value
    return out


class Connection:
    """One keep-alive HTTP/1.1 client connection."""

    def __init__(self, reader, writer) -> None:
        self.reader, self.writer = reader, writer

    @classmethod
    async def open(cls, port: int) -> "Connection":
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        return cls(reader, writer)

    async def exchange(self, request: bytes) -> tuple[int, bytes]:
        self.writer.write(request)
        await self.writer.drain()
        head = await self.reader.readuntil(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        status = int(lines[0].split(" ", 2)[1])
        length = 0
        for line in lines[1:]:
            key, _, value = line.partition(":")
            if key.strip().lower() == "content-length":
                length = int(value.strip())
        body = await self.reader.readexactly(length)
        return status, body

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass


def _get(target: str) -> bytes:
    return (f"GET /v1/report/{target}?quick=1 HTTP/1.1\r\n"
            f"Host: 127.0.0.1\r\n\r\n").encode()


def _post(target: str) -> bytes:
    body = json.dumps({"name": target, "quick": True}).encode()
    return (f"POST /v1/report HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n").encode() + body


SCRAPE = b"GET /metrics HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n"


def schedule(seed: int, targets: list[str], n: int) -> list[tuple]:
    """``n`` requests: (kind, target, request bytes).  Targets come in
    seeded permutations, so each appears equally often; GET or POST is a
    seeded coin."""
    rng = random.Random(seed)
    out: list[tuple] = []
    order: list[str] = []
    for i in range(n):
        if (i + 1) % SCRAPE_EVERY == 0:
            out.append(("scrape", None, SCRAPE))
            continue
        if not order:
            order = list(targets)
            rng.shuffle(order)
        target = order.pop()
        if rng.random() < 0.5:
            out.append(("report", target, _get(target)))
        else:
            out.append(("report", target, _post(target)))
    return out


class Server:
    """One ``repro.serve`` process started through the launcher."""

    def __init__(self, ctx, *, traced: bool) -> None:
        run = ctx.scratch("server")
        self.out = run / "server.json"
        self.window = run / "window.json"
        self.doc: dict = {}
        log_path = run / "server.log"
        cmd = [sys.executable, str(HERE / "serve_launcher.py"),
               "--out", str(self.out), "--window", str(self.window)]
        if traced:
            cmd.append("--trace")
        cmd += ["--", "--port", "0", "--cache-dir", str(run / "store"),
                "--workers", "2"]
        with open(log_path, "w") as log:
            self.proc = subprocess.Popen(
                cmd, stdout=log, stderr=subprocess.STDOUT, cwd=ctx.root,
                env=dict(os.environ))
        deadline = time.monotonic() + START_TIMEOUT_S
        pattern = re.compile(r"listening on http://127\.0\.0\.1:(\d+)")
        while time.monotonic() < deadline:
            m = pattern.search(log_path.read_text())
            if m:
                self.port = int(m.group(1))
                return
            if self.proc.poll() is not None:
                break
            time.sleep(0.05)
        self.stop()
        raise BenchError("repro.serve did not start:\n"
                         + log_path.read_text()[-2000:])

    def peak_rss_mb(self) -> float:
        """The live server's peak RSS so far, from /proc."""
        status = Path(f"/proc/{self.proc.pid}/status")
        for line in status.read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM for the server process")

    def stop(self, window: tuple[int, int] | None = None) -> None:
        """SIGTERM and wait; the launcher then writes its document."""
        if window is not None:
            self.window.write_text(json.dumps(
                {"start_ns": window[0], "end_ns": window[1]}))
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.out.is_file():
            self.doc = json.loads(self.out.read_text())


class ServeWorkload(Workload):
    name = "serve"
    #: one 1000-request cycle on the reference host
    cycle_s = 0.2
    op_kinds = ("report", "scrape")
    warm_kinds = ("report",)

    def __init__(self, ctx) -> None:
        super().__init__(ctx)
        self.loop = asyncio.new_event_loop()
        self.targets = list(ctx.reference["serve_targets"])
        self.expected = ctx.reference["serve_sha256"]
        self.plan = schedule(ctx.seed, self.targets, CYCLE_REQUESTS)
        self.server: Server | None = None
        self.traced_server: Server | None = None
        self.active: Server | None = None
        #: monotonic-clock span of the traced cycles (server timer window)
        self.window = [0, 0]

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
        if self.traced_server is not None:
            self.traced_server.stop(tuple(self.window))
        self.loop.close()

    def peak_rss_mb(self) -> float:
        return self.server.peak_rss_mb()

    # --- requests ------------------------------------------------------------
    def _check(self, kind: str, target, status: int,
               body: bytes) -> tuple[str | None, int]:
        """(error or None, rendered text bytes) for one response."""
        if status != 200:
            return f"HTTP {status}", 0
        if kind == "scrape":
            ok = b"serve_requests_total" in body
            return (None if ok else "scrape lacks serve_requests_total"), 0
        text = json.loads(body)["text"].encode()
        sha = hashlib.sha256(text).hexdigest()
        if sha != self.expected[target]:
            return f"{target} body sha256 {sha[:12]} != offline rendering", 0
        return None, len(text)

    async def _drive(self, plan, ledger: OpLedger | None, stats: dict):
        conns = [await Connection.open(self.active.port)
                 for _ in range(CONNECTIONS)]
        queue = iter(plan)

        async def client(conn: Connection) -> None:
            for kind, target, request in queue:
                t0 = time.perf_counter_ns()
                try:
                    status, body = await asyncio.wait_for(
                        conn.exchange(request), REQUEST_TIMEOUT_S)
                except (asyncio.TimeoutError, OSError,
                        asyncio.IncompleteReadError) as exc:
                    # this connection is gone; the other drains the plan
                    if ledger is None:
                        raise
                    ledger.fail(kind, f"{type(exc).__name__}: {exc}")
                    return
                ms = (time.perf_counter_ns() - t0) / 1e6
                error, nbytes = self._check(kind, target, status, body)
                if ledger is None:
                    if error:
                        raise BenchError(f"warm-up request failed: {error}")
                    continue
                if error:
                    ledger.fail(kind, error)
                else:
                    ledger.ok(kind, ms)
                    stats["text_bytes"] += nbytes

        try:
            await asyncio.gather(*(client(c) for c in conns))
        finally:
            for conn in conns:
                await conn.close()

    async def _one(self, request: bytes) -> tuple[int, bytes]:
        conn = await Connection.open(self.active.port)
        try:
            return await asyncio.wait_for(conn.exchange(request),
                                          REQUEST_TIMEOUT_S)
        finally:
            await conn.close()

    def _counters(self) -> dict[str, float]:
        status, body = self.loop.run_until_complete(self._one(SCRAPE))
        if status != 200:
            raise BenchError(f"/metrics returned {status}")
        return parse_counters(body.decode())

    # --- workload ------------------------------------------------------------
    def _bring_up(self, *, traced: bool) -> Server:
        """Start a server and send the cold request for every target."""
        self.active = Server(self.ctx, traced=traced)
        for target in self.targets:
            status, body = self.loop.run_until_complete(
                self._one(_get(target)))
            error, _ = self._check("report", target, status, body)
            if error:
                raise BenchError(f"cold request failed: {error}")
        return self.active

    def _warm(self) -> None:
        warmup = schedule(self.ctx.seed + 1, self.targets, WARMUP_REQUESTS)
        self.loop.run_until_complete(self._drive(warmup, None, {}))

    def setup(self) -> None:
        if self.server is not None:
            self.server.stop()
        self.server = self._bring_up(traced=False)

    def warmup(self) -> None:
        self._warm()

    def prepare_trace(self) -> None:
        """A second server, with timers, that the traced cycles use."""
        self.traced_server = self._bring_up(traced=True)
        self._warm()
        self.active = self.server

    def run_cycle(self, ledger: OpLedger) -> dict[str, float]:
        before = self._counters()
        stats = {"text_bytes": 0}
        t0 = time.monotonic_ns()
        self.loop.run_until_complete(self._drive(self.plan, ledger, stats))
        if self.active is self.traced_server:
            self.window = [self.window[0] or t0, time.monotonic_ns()]
        after = self._counters()
        counts = {k: after.get(k, 0.0) - before.get(k, 0.0)
                  for k in set(after) | set(before)
                  if k.startswith("requests.") or k in (
                      "serve_requests_total", "serve_shed_total",
                      "serve_timeout_total")}
        counts["text_bytes"] = stats["text_bytes"]
        return counts

    @contextmanager
    def traced(self, recorder):
        """Send the enclosed cycles to the timed server."""
        self.active = self.traced_server
        try:
            yield
        finally:
            self.active = self.server

    def layer_metrics(self, recorder, ledger: OpLedger) -> dict[str, float]:
        timers = self.traced_server.doc.get("timers", {})
        reports = ledger.samples(("report",))
        n_reports = timers.get("serve.service", {}).get("calls", 0)
        n_all = timers.get("serve.http.route", {}).get("calls", 0)

        def per(name: str, n: float) -> float:
            return timers.get(name, {}).get("ms", 0.0) / n if n else 0.0

        service = per("serve.service", n_reports)
        latency = sum(reports) / len(reports) if reports else 0.0
        everything = ledger.samples(self.op_kinds)
        mean_all = sum(everything) / len(everything) if everything else 0.0
        handler = per("serve.http.route", n_all) + per("serve.http.send",
                                                       n_all)
        return {
            "serve.service.busy_ms": service,
            "serve.metrics.observe_ms": per("serve.metrics.observe",
                                            n_reports),
            "serve.metrics.render_ms": per(
                "serve.metrics.render",
                timers.get("serve.metrics.render", {}).get("calls", 0)),
            "serve.http.busy_ms": latency - service,
            "serve.http.handler_ms": handler - service * n_reports / n_all
            if n_all else 0.0,
            "trace.unattributed_pct":
                100.0 * (1.0 - handler / mean_all) if mean_all else 0.0,
        }

    def count_metrics(self, counts: dict[str, float]) -> dict[str, float]:
        n = counts.get("serve_requests_total", 0.0)
        return {
            "serve.requests.memory": counts.get("requests.memory", 0.0),
            "serve.requests.warm": counts.get("requests.warm", 0.0),
            "serve.requests.cold": counts.get("requests.cold", 0.0),
            "serve.requests.coalesced": counts.get("requests.coalesced", 0.0),
            "serve.shed": counts.get("serve_shed_total", 0.0),
            "serve.timeouts": counts.get("serve_timeout_total", 0.0),
            # the rendered text per request; the JSON envelope around it
            # carries a timing whose digits vary from run to run
            "serve.response_bytes":
                counts.get("text_bytes", 0.0) / n if n else 0.0,
        }


WORKLOAD = ServeWorkload
