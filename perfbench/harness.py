"""Environment, inputs and reporting shared by every workload.

Everything the benchmark writes lives under ``.bench_build/perfbench`` in
the checkout it runs from:

* ``<fingerprint>/`` — inputs prepared once per source tree (the quick
  WorkLogs, the offline reference renderings) plus the exact counts every
  run of a seed must repeat.  The fingerprint hashes ``src/``, so two
  commits never share prepared inputs.
* ``runs/<workload>-s<seed>-<pid>/`` — one run's stores, checkpoints and
  temporary files, removed when the run ends.
"""

from __future__ import annotations

import fcntl
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

#: the benchmark's own directory
HERE = Path(__file__).resolve().parent
#: environment marker: set once the process runs under the pinned environment
PINNED = "PERFBENCH_PINNED"
#: process start, CLOCK_MONOTONIC seconds (survives the re-exec)
T0_ENV = "PERFBENCH_T0"
#: per-commit input preparation ceiling (the first run of a checkout)
PREPARE_TIMEOUT_S = 840


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing sources, failed preparation)."""


def repo_root() -> Path:
    """The checkout the benchmark runs in: the working directory, which
    must hold the program's sources."""
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        raise BenchError(f"{root} holds no src/repro package; run the "
                         f"benchmark from the root of a checkout")
    return root


def source_fingerprint(src: Path) -> str:
    """SHA-256 over every source file's path and bytes under ``src``."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*")):
        if (not path.is_file() or "__pycache__" in path.parts
                or path.suffix == ".pyc"):
            continue
        h.update(str(path.relative_to(src)).encode() + b"\0")
        h.update(path.read_bytes())
        h.update(b"\0")
    return h.hexdigest()[:24]


def bench_dir(root: Path) -> Path:
    return root / ".bench_build" / "perfbench"


def pinned_env(root: Path, *, tmpdir: Path | None = None,
               xdg: Path | None = None) -> dict[str, str]:
    """The environment every benchmark process runs under.

    Serial replay, every other ``REPRO_*`` knob unset, a fixed hash seed,
    and single-threaded BLAS/OpenMP, so the process does the same work in
    the same order on every run.
    """
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_") and k != "PYTHONPATH"}
    env.update({
        "REPRO_REPLAY_JOBS": "1",
        "PYTHONHASHSEED": "0",
        "PYTHONPATH": str(root / "src"),
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
        "NUMEXPR_NUM_THREADS": "1",
        "VECLIB_MAXIMUM_THREADS": "1",
    })
    if tmpdir is not None:
        env["TMPDIR"] = str(tmpdir)
    if xdg is not None:
        env["XDG_CACHE_HOME"] = str(xdg)
    return env


def reexec_pinned(argv: list[str]) -> None:
    """Restart this interpreter under :func:`pinned_env` (hash seed and
    thread counts only take effect at interpreter start)."""
    if os.environ.get(PINNED) == "1":
        return
    root = repo_root()
    env = pinned_env(root)
    env[PINNED] = "1"
    env.setdefault(T0_ENV, repr(time.monotonic()))
    sys.stdout.flush()
    os.execve(sys.executable, [sys.executable, *argv], env)


def process_t0() -> float:
    """Monotonic time at which this benchmark process started."""
    return float(os.environ.get(T0_ENV, time.monotonic()))


# --- per-commit inputs --------------------------------------------------------

def prepared(root: Path) -> tuple[Path, dict]:
    """The per-commit input directory and its reference document,
    preparing them on first use (serialised by a lock file)."""
    fp = source_fingerprint(root / "src")
    base = bench_dir(root) / fp
    ref_path = base / "reference.json"
    if not ref_path.is_file():
        base.mkdir(parents=True, exist_ok=True)
        with open(base / ".lock", "w") as lock:
            fcntl.flock(lock, fcntl.LOCK_EX)
            if not ref_path.is_file():
                env = pinned_env(root, tmpdir=base, xdg=base / "xdg")
                t0 = time.monotonic()
                proc = subprocess.run(
                    [sys.executable, str(HERE / "prepare.py"), str(ref_path)],
                    env=env, cwd=root, stdout=subprocess.PIPE,
                    stderr=subprocess.STDOUT, text=True,
                    timeout=PREPARE_TIMEOUT_S)
                if proc.returncode != 0 or not ref_path.is_file():
                    raise BenchError("input preparation failed:\n"
                                     + proc.stdout[-4000:])
                print(f"# prepared inputs for {fp} in "
                      f"{time.monotonic() - t0:.1f} s", file=sys.stderr)
    return base, json.loads(ref_path.read_text())


@contextmanager
def run_dir(root: Path, prepared_dir: Path, name: str):
    """A fresh per-run directory whose cache home sees only the prepared
    WorkLogs; it and everything written in it are removed at exit."""
    path = bench_dir(root) / "runs" / f"{name}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    worklogs = path / "xdg" / "repro"
    worklogs.mkdir(parents=True)
    (worklogs / "worklogs").symlink_to(prepared_dir / "xdg" / "repro"
                                       / "worklogs")
    (path / "tmp").mkdir()
    old = {k: os.environ.get(k) for k in ("TMPDIR", "XDG_CACHE_HOME")}
    os.environ["TMPDIR"] = str(path / "tmp")
    os.environ["XDG_CACHE_HOME"] = str(path / "xdg")
    import tempfile

    tempfile.tempdir = None
    try:
        yield path
    finally:
        for key, value in old.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
        tempfile.tempdir = None
        shutil.rmtree(path, ignore_errors=True)


# --- durability stub ----------------------------------------------------------

class FsyncCounter:
    """Stands in for ``os`` inside ``repro.util.artifacts``.

    The benchmark's stores must live in its checkout, which may sit on a
    disk whose flush latency belongs to the host, not the program.  File
    and directory fsyncs become counted no-ops (what tmpfs gives), and the
    bytes of every flushed file are summed; every other ``os`` attribute
    is the real one.
    """

    def __init__(self) -> None:
        self.fsyncs = 0
        self.bytes_written = 0

    def fsync(self, fd: int) -> None:
        import stat

        st = os.fstat(fd)
        self.fsyncs += 1
        if stat.S_ISREG(st.st_mode):
            self.bytes_written += st.st_size

    def __getattr__(self, name: str):
        return getattr(os, name)


def install_fsync_counter() -> FsyncCounter:
    from repro.util import artifacts

    counter = FsyncCounter()
    artifacts.os = counter
    return counter


# --- host state ---------------------------------------------------------------

def _cpu_ticks() -> tuple[int, int]:
    """(steal, total) jiffies from /proc/stat, or zeros off Linux."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()[1:]
    except OSError:
        return 0, 0
    ticks = [int(x) for x in fields]
    steal = ticks[7] if len(ticks) > 7 else 0
    return steal, sum(ticks[:8])


def calibration_ms() -> float:
    """Wall time of a fixed pure-Python loop: a host-speed probe recorded
    beside every run, never used to scale a metric."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc = (acc + i * i) % 1_000_003
    return (time.perf_counter() - t0) * 1e3


class HostProbe:
    """nproc, load average, steal-time delta and the calibration loop,
    taken at the start and end of a run."""

    def __init__(self) -> None:
        self.nproc = os.cpu_count() or 1
        self.load_start = os.getloadavg()[0]
        self.steal0, self.total0 = _cpu_ticks()
        self.calib_start_ms = calibration_ms()

    def finish(self) -> dict[str, float]:
        calib_end = calibration_ms()
        steal1, total1 = _cpu_ticks()
        dt = total1 - self.total0
        return {
            "nproc": self.nproc,
            "load_start": self.load_start,
            "load_end": os.getloadavg()[0],
            "steal_pct": 100.0 * (steal1 - self.steal0) / dt if dt else 0.0,
            "calib_start_ms": self.calib_start_ms,
            "calib_end_ms": calib_end,
        }


def peak_rss_mb() -> float:
    """Peak resident set size of this process, MiB."""
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --- exact counts -------------------------------------------------------------

def check_counts(prepared_dir: Path, key: str,
                 counts: dict[str, float]) -> list[str]:
    """Compare a run's exact counts with the first run of the same key.

    The first run of a key records its counts; every later run (the same
    seed run again, or the traced run of the same seed) must repeat them
    exactly.  Counts are kept per version of the benchmark's own code.
    Returns the differing names.
    """
    path = (prepared_dir / "counts" / source_fingerprint(HERE)
            / f"{key}.json")
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path.parent / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not path.is_file():
            tmp = path.with_suffix(".tmp")
            tmp.write_text(json.dumps(counts, sort_keys=True, indent=1))
            os.replace(tmp, path)
            return []
        first = json.loads(path.read_text())
    return diff_counts(first, counts)


def diff_counts(expected: dict[str, float],
                got: dict[str, float]) -> list[str]:
    names = sorted(set(expected) | set(got))
    return [f"{n}: {expected.get(n)} != {got.get(n)}" for n in names
            if expected.get(n) != got.get(n)]


# --- output -------------------------------------------------------------------

def emit(*, correct: bool, attempted: int, failed: int,
         metrics: dict[str, tuple[float, str]], lines: list[str]) -> None:
    """Print the human-readable report, then the result object as the
    last line of standard output."""
    for line in lines:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    doc = {"correct": bool(correct), "attempted": int(attempted),
           "failed": int(failed),
           "metrics": {name: {"value": float(value), "unit": unit}
                       for name, (value, unit) in metrics.items()}}
    print(json.dumps(doc, sort_keys=False))
    sys.stdout.flush()
