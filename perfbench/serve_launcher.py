"""Run ``repro.serve`` as the benchmark's server process.

Usage::

    python3 perfbench/serve_launcher.py --out OUT.json --window WIN.json
        [--trace] -- <repro.serve arguments>

Installs the benchmark's fsync counter, and with ``--trace`` wraps the
service's entry points in timers, then calls ``repro.serve.__main__.main``.
When the server exits (SIGTERM) it writes ``OUT.json``: its peak RSS and,
when traced, each timer's total and call count over the spans that
started inside the monotonic-clock window ``[start_ns, end_ns]`` read from
``WIN.json`` (the client's timed phase).
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import os
import resource
import sys
import time
from array import array
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.harness import install_fsync_counter  # noqa: E402


class Timers:
    """Start and duration of every call, per timer name.

    Coroutines of concurrent requests interleave on the event loop, so
    these timers keep no nesting; each records its own wall interval.
    """

    def __init__(self) -> None:
        self.starts: dict[str, array] = {}
        self.durs: dict[str, array] = {}

    def add(self, name: str, start: int, end: int) -> None:
        if name not in self.starts:
            self.starts[name] = array("q")
            self.durs[name] = array("q")
        self.starts[name].append(start)
        self.durs[name].append(end - start)

    def wrap(self, owner, attr: str, name: str) -> None:
        original = inspect.getattr_static(owner, attr)
        static = isinstance(original, staticmethod)
        if static:
            original = original.__func__
        clock = time.monotonic_ns

        if inspect.iscoroutinefunction(original):
            @functools.wraps(original)
            async def timed(*args, **kwargs):
                t0 = clock()
                try:
                    return await original(*args, **kwargs)
                finally:
                    self.add(name, t0, clock())
        else:
            @functools.wraps(original)
            def timed(*args, **kwargs):
                t0 = clock()
                try:
                    return original(*args, **kwargs)
                finally:
                    self.add(name, t0, clock())
        setattr(owner, attr, staticmethod(timed) if static else timed)

    def summary(self, start_ns: int, end_ns: int) -> dict[str, dict]:
        out = {}
        for name, starts in self.starts.items():
            durs = self.durs[name]
            picked = [d for s, d in zip(starts, durs)
                      if start_ns <= s <= end_ns]
            out[name] = {"ms": sum(picked) / 1e6, "calls": len(picked)}
        return out


def install(timers: Timers) -> None:
    from repro.serve.http import HttpServer
    from repro.serve.metrics import MetricsRegistry
    from repro.serve.service import ExperimentService

    timers.wrap(HttpServer, "_route", "serve.http.route")
    timers.wrap(HttpServer, "_send", "serve.http.send")
    timers.wrap(ExperimentService, "report", "serve.service")
    timers.wrap(MetricsRegistry, "observe", "serve.metrics.observe")
    timers.wrap(MetricsRegistry, "render_prometheus", "serve.metrics.render")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="serve_launcher.py")
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--window", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    serve_args = args.serve_args
    if serve_args[:1] == ["--"]:
        serve_args = serve_args[1:]

    install_fsync_counter()
    timers = Timers()
    if args.trace:
        install(timers)
    from repro.serve.__main__ import main as serve_main

    code = serve_main(serve_args)
    doc = {"peak_rss_mb":
           resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if args.trace and args.window.is_file():
        window = json.loads(args.window.read_text())
        doc["timers"] = timers.summary(window["start_ns"], window["end_ns"])
    tmp = args.out.with_suffix(".tmp")
    tmp.write_text(json.dumps(doc))
    os.replace(tmp, args.out)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
