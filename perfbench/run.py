"""The repository's benchmark: one workload per invocation.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload {report,record,fabric,serve,all}
                             --seed N --seconds S --trace {0,1}

``--trace 0`` measures the end-to-end metrics with the program unmodified.
``--trace 1`` alternates untraced cycles with cycles whose layer entry
points are wrapped in spans, and reports the per-layer metrics plus the
tracing overhead (traced against untraced median op latency).  Every
metric is printed by name with its unit; the last line of standard output
is the result object.  The first run in a checkout also prepares that
commit's inputs.  ``--workload all`` runs every workload in turn.

``python3 perfbench/run.py --write-benchmark-json`` regenerates
``BENCHMARK.json`` from ``perfbench/metrics.py``.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import harness, metrics  # noqa: E402
from perfbench.stats import OpLedger, beyond, median, percentile  # noqa: E402

#: set-ups per run; setup_s reports their median plus start-up and warm-up
SETUP_REPEATS = 3


def _workload_class(name: str):
    import importlib

    module = importlib.import_module(f"perfbench.workloads.{name}")
    return module.WORKLOAD


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="python3 perfbench/run.py")
    parser.add_argument("--workload",
                        choices=[n for n, _ in metrics.WORKLOADS] + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=metrics.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-benchmark-json", action="store_true")
    args = parser.parse_args(argv)
    if not args.write_benchmark_json and args.workload is None:
        parser.error("--workload is required")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def _cycle(wl, ledger: OpLedger, recorder) -> dict[str, float]:
    """One cycle's exact counts; traced cycles add their span counts."""
    n_ops = len(recorder.ops) if recorder is not None else 0
    n_spans = len(recorder.spans) if recorder is not None else 0
    counts = {k: v for k, v in wl.run_cycle(ledger).items()
              if k not in wl.inexact_counts}
    if recorder is None:
        return counts
    for op in recorder.ops[n_ops:]:
        for key, value in op.counts.items():
            if key not in wl.inexact_counts:
                key = f"span.{op.kind}.{key}"
                counts[key] = counts.get(key, 0) + value
    for span in recorder.spans[n_spans:]:
        if span.op >= 0:
            key = f"span.calls.{span.name}"
            counts[key] = counts.get(key, 0) + 1
    return counts


def measure(wl, ledger: OpLedger, traced: OpLedger | None = None,
            recorder=None) -> tuple[dict, dict, list[float]]:
    """Run the workload's whole cycles, each followed by a traced cycle
    when tracing, so both see the same host.  A cycle whose exact counts
    differ from the first cycle of its kind fails all its ops.  Returns
    the first untraced and the first traced cycle's counts, and each
    untraced cycle's successful ops per second."""
    first: dict[str, dict] = {}
    rates: list[float] = []
    passes = [("untraced", ledger, None)]
    if recorder is not None:
        passes.append(("traced", traced, recorder))
    for i in range(wl.cycles()):
        for label, led, rec in passes:
            mark = led.mark()
            wl.ctx.recorder = rec
            t0 = time.perf_counter()
            try:
                with wl.traced(rec) if rec is not None else nullcontext():
                    counts = _cycle(wl, led, rec)
            finally:
                wl.ctx.recorder = None
            if rec is None:
                rates.append((led.mark() - mark)
                             / (time.perf_counter() - t0))
            if label not in first:
                first[label] = counts
                continue
            diff = harness.diff_counts(first[label], counts)
            if diff:
                led.fail_since(mark, f"{label} cycle {i} counts differ from "
                                     f"cycle 0: {'; '.join(diff[:5])}")
    return first.get("untraced", {}), first.get("traced", {}), rates


def run(args: argparse.Namespace) -> int:
    root = harness.repo_root()
    t_prep = time.monotonic()
    prepared_dir, reference = harness.prepared(root)
    prep_s = time.monotonic() - t_prep
    probe = harness.HostProbe()
    name = f"{args.workload}-s{args.seed}"
    recorder = traced = None
    with harness.run_dir(root, prepared_dir, name) as rd:
        from perfbench.workloads.base import Context

        fsync = harness.install_fsync_counter()
        ctx = Context(seed=args.seed, seconds=args.seconds, root=root,
                      run_dir=rd, reference=reference, fsync=fsync)
        wl = _workload_class(args.workload)(ctx)
        try:
            wl.preload()
            startup_s = (time.monotonic() - harness.process_t0() - prep_s
                         - probe.calib_start_ms / 1e3)
            setups = []
            for _ in range(SETUP_REPEATS):
                t0 = time.monotonic()
                wl.setup()
                setups.append(time.monotonic() - t0)
            t0 = time.monotonic()
            wl.warmup()
            warmup_s = time.monotonic() - t0
            setup_s = startup_s + median(setups) + warmup_s

            ledger = OpLedger()
            if args.trace:
                from perfbench.spans import Recorder

                recorder, traced = Recorder(), OpLedger()
                wl.prepare_trace()
            counts, tcounts, rates = measure(wl, ledger, traced, recorder)
            rss_mb = wl.peak_rss_mb()
        finally:
            wl.close()

        host = probe.finish()
        key = f"{args.workload}-s{args.seed}-t{args.seconds}"
        mismatch = harness.check_counts(prepared_dir, key, counts)
        if args.trace:
            plain = {k: v for k, v in tcounts.items()
                     if not k.startswith("span.")}
            spans = {k: v for k, v in tcounts.items() if k.startswith("span.")}
            diff = harness.diff_counts(counts, plain)
            if diff:
                traced.fail_since(0, "traced counts differ from untraced: "
                                     + "; ".join(diff[:5]))
            mismatch += harness.check_counts(prepared_dir, key + "-spans",
                                             spans)
        for led in (ledger, traced):
            if led is not None and mismatch:
                led.fail_since(0, "counts differ from an earlier run of "
                                  "this seed: " + "; ".join(mismatch[:5]))

    lines = [f"workload {args.workload} seed {args.seed} "
             f"cycles {wl.cycles()} trace {args.trace}",
             "host " + " ".join(f"{k}={v:.4g}" for k, v in host.items()),
             f"setup startup_s={startup_s:.4g} warmup_s={warmup_s:.4g} "
             "repeats=" + ",".join(f"{s:.4g}" for s in setups)]
    for label, led in (("untraced", ledger), ("traced", traced)):
        for kind, samples in (led.samples_ms.items() if led else ()):
            lines.append(
                f"samples {label} {kind} n={len(samples)}"
                + (f" p50={median(samples):.4g} ms" if samples else ""))
    for key, value in sorted(counts.items()):
        lines.append(f"count {key} = {value:g}")
    for led in (ledger, traced):
        for err in (led.errors if led is not None else []):
            lines.append(f"FAILED {err}")

    ops = ledger.samples(wl.op_kinds)
    warm = ledger.samples(wl.warm_kinds)
    if args.trace:
        layer = wl.layer_metrics(recorder, traced)
        layer.update(wl.count_metrics(counts))
        tops = traced.samples(wl.op_kinds)
        layer["trace.overhead_pct"] = (
            100.0 * (median(tops) / median(ops) - 1.0) if ops and tops
            else 0.0)
        layer["host.calibration_ms"] = 0.5 * (host["calib_start_ms"]
                                              + host["calib_end_ms"])
        values = {n: (layer.get(n, 0.0), u) for n, u in metrics.PER_LAYER}
    else:
        e2e = {
            "setup_s": setup_s,
            "op_p50_ms": median(ops) if ops else 0.0,
            "warm_op_p50_ms": median(warm) if warm else 0.0,
            "ops_per_s": median(rates) if rates else 0.0,
            "peak_rss_mb": rss_mb,
        }
        values = {n: (e2e[n], u) for n, u, _, _ in metrics.END_TO_END}
        lines.append(f"op samples n={len(ops)} (warm n={len(warm)}, "
                     f"cycles {len(rates)})")
        # reported, not gated: too few samples or too host-sensitive to
        # hold within a bound (see perfbench/README.md)
        if ops:
            lines.append(f"info op_p99_ms = {percentile(ops, 99):.6g} ms "
                         f"(n={len(ops)}, beyond={beyond(ops, 99)})")
        lines += [f"info {name} = {value:.6g} {unit}" for name, value, unit
                  in wl.info_metrics(ledger, counts)]
    attempted = ledger.attempted + (traced.attempted if traced else 0)
    failed = ledger.failed + (traced.failed if traced else 0)
    harness.emit(correct=failed == 0 and attempted > 0, attempted=attempted,
                 failed=failed, metrics=values, lines=lines)
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Every workload in turn, each in its own process."""
    worst = 0
    for name, _ in metrics.WORKLOADS:
        print(f"== {name}", flush=True)
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)])
        worst = max(worst, proc.returncode)
    return worst


def main(argv: list[str]) -> int:
    args = _parse(argv)
    if args.write_benchmark_json:
        print(metrics.write_benchmark_json(Path.cwd()))
        return 0
    if args.workload == "all":
        return run_all(args)
    try:
        harness.repo_root()
    except harness.BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    harness.reexec_pinned([str(Path(__file__).resolve()), *argv])
    try:
        return run(args)
    except harness.BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
