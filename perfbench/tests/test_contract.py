"""BENCHMARK.json against its contract, and the benchmark's refusal to run
without the program's sources."""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

from perfbench import metrics
from perfbench.workloads.serve import SCRAPE_EVERY, parse_counters, schedule

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_is_generated_from_metrics():
    committed = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert committed == metrics.benchmark_json()


def test_benchmark_json_meets_the_contract():
    doc = metrics.benchmark_json()
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert 1 <= doc["run_seconds"] <= 60
    assert 1 <= len(doc["paths"]) <= 16
    for path in doc["paths"]:
        assert re.fullmatch(r"[A-Za-z0-9_./-]{1,200}", path)
        assert (ROOT / path).is_dir()
    assert doc["command"][1].split("/")[0] in doc["paths"]
    assert 2 <= len(doc["workloads"]) <= 8
    assert 1 <= len(doc["end_to_end"]) <= 16
    assert 1 <= len(doc["per_layer"]) <= 128
    names = [m["name"] for m in doc["workloads"]]
    names += [m["name"] for m in doc["end_to_end"]]
    names += [m["name"] for m in doc["per_layer"]]
    for name in names:
        assert NAME.match(name), name
    for w in doc["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    for m in doc["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
        assert 0 < m["bound"] <= 0.25
    assert bounds["setup_s"] == max(bounds.values())
    for m in doc["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    assert len(json.dumps(doc)) <= 64 * 1024


def test_refuses_to_run_without_the_program(tmp_path):
    """A directory holding only BENCHMARK.json and the benchmark's files:
    a non-zero exit and no result line."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    for path in metrics.PATHS:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "report",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_serve_schedule_is_balanced_and_seeded():
    targets = [f"t{i}" for i in range(9)]
    plan = schedule(3, targets, 1000)
    assert plan == schedule(3, targets, 1000)
    assert plan != schedule(4, targets, 1000)
    kinds = Counter(kind for kind, _, _ in plan)
    assert kinds["scrape"] == 1000 // SCRAPE_EVERY
    assert all(plan[i][0] == "scrape"
               for i in range(SCRAPE_EVERY - 1, 1000, SCRAPE_EVERY))
    per_target = Counter(t for kind, t, _ in plan if kind == "report")
    assert max(per_target.values()) - min(per_target.values()) <= 1


def test_parse_counters_sums_requests_by_cache():
    text = "\n".join([
        "# TYPE serve_requests_total counter",
        'serve_requests_total{cache="memory",experiment="all"} 5',
        'serve_requests_total{cache="memory",experiment="toys"} 7',
        'serve_requests_total{cache="cold",experiment="all"} 1',
        "serve_shed_total 0",
        'serve_request_ms_bucket{cache="memory",le="1.0"} 12',
    ])
    counts = parse_counters(text)
    assert counts["serve_requests_total"] == 13
    assert counts["requests.memory"] == 12
    assert counts["requests.cold"] == 1
    assert counts["serve_shed_total"] == 0
